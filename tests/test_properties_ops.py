"""Property-based tests for the operator extensions and the
tick-level behaviour of the write combiner under arbitrary stimulus."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.fifo import Fifo
from repro.core.hash_module import HashedTuple
from repro.core.modes import PartitionerConfig
from repro.core.write_combiner import WriteCombiner
from repro.core.tuples import DUMMY_PAYLOAD
from repro.ops import partitioned_groupby
from repro.ops.distributed import DistributedPartitioner
from repro.core.partitioner import FpgaPartitioner
from repro.workloads.relations import Relation

small_key_arrays = st.lists(
    st.integers(min_value=0, max_value=2**32 - 1), min_size=1, max_size=200
).map(lambda xs: np.array(xs, dtype=np.uint32))


@given(
    keys=small_key_arrays,
    values=st.lists(
        st.integers(min_value=0, max_value=1000), min_size=1, max_size=200
    ),
    aggregate=st.sampled_from(["sum", "count", "min", "max"]),
)
@settings(max_examples=50, deadline=None)
def test_groupby_matches_dict_reference(keys, values, aggregate):
    n = min(keys.shape[0], len(values))
    keys = keys[:n]
    values = np.array(values[:n], dtype=np.uint32)
    result = partitioned_groupby(
        keys, values, aggregate=aggregate, num_partitions=8
    )
    reference = {}
    for k, v in zip(map(int, keys), map(int, values)):
        reference.setdefault(k, []).append(v)
    reducer = {"sum": sum, "count": len, "min": min, "max": max}[aggregate]
    assert result.num_groups == len(reference)
    for k, v in result.as_dict().items():
        assert v == reducer(reference[k])


@given(keys=small_key_arrays, nodes=st.sampled_from([1, 2, 4]))
@settings(max_examples=25, deadline=None)
def test_distributed_equals_single_node(keys, nodes):
    config = PartitionerConfig(num_partitions=16)
    relation = Relation(
        keys=keys, payloads=np.arange(keys.shape[0], dtype=np.uint32)
    )
    cluster = DistributedPartitioner(nodes, config)
    result = cluster.execute(cluster.split_relation(relation))
    single = FpgaPartitioner(config).partition(relation)
    for p in range(16):
        owner = cluster.owner_of(p)
        got = result.node_partition_keys[owner].get(
            p, np.empty(0, dtype=np.uint32)
        )
        assert sorted(map(int, got)) == sorted(
            map(int, single.partition_keys[p])
        )


# ---------------------------------------------------------------------------
# Tick-level fuzz: the write combiner must never lose or invent a tuple
# for ANY interleaving of tuples and idle cycles.
# ---------------------------------------------------------------------------

stimulus = st.lists(
    st.one_of(
        st.none(),  # an idle cycle (empty input FIFO)
        st.integers(min_value=0, max_value=7),  # a tuple for partition p
    ),
    min_size=1,
    max_size=150,
)


@given(events=stimulus)
@settings(max_examples=80, deadline=None)
def test_write_combiner_conserves_tuples_under_any_stimulus(events):
    inp = Fifo(256, name="in")
    out = Fifo(256, name="out")
    wc = WriteCombiner(
        num_partitions=8, tuples_per_line=8, input_fifo=inp, output_fifo=out
    )
    sent = []
    serial = 0
    for event in events:
        if event is not None:
            inp.push(HashedTuple(key=event, payload=serial, partition=event))
            sent.append((event, serial))
            serial += 1
        wc.tick()
    for _ in range(16):  # drain the pipeline
        wc.tick()
    while wc.flush_cycle():
        pass
    received = []
    while not out.is_empty():
        line = out.pop()
        for k, p in zip(line.keys, line.payloads):
            if int(p) != DUMMY_PAYLOAD:
                received.append((int(k), int(p)))
                assert line.partition == int(k)
    assert sorted(received) == sorted(sent)
