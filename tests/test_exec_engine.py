"""Tests for the morsel-driven execution engine (repro.exec).

The engine's contract is *byte-identity*: for any backend, worker
count and morsel split, the partitioned output must equal the serial
reference exactly — same bytes, same order.  These tests check that
across hash kinds, fan-outs, skew, empty partitions and every consumer
that was wired through the engine (FpgaPartitioner, swwc/CpuPartitioner
and the joins), plus the unit behaviour of the morsel planner and the
histogram merge.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.hashing import partition_function, partition_of
from repro.core.modes import OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.cpu.partitioner import CpuPartitioner
from repro.cpu.swwc_buffers import swwc_partition
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.exec import (
    ExecutionEngine,
    merge_histograms,
    plan_morsels,
    resolve_engine,
)


def _raise_value_error():
    raise ValueError("boom")


def _reference(keys, payloads, num_partitions, use_hash):
    parts = np.asarray(partition_of(keys, num_partitions, use_hash)).astype(
        np.int64
    )
    order = np.argsort(parts, kind="stable")
    return keys[order], payloads[order], np.bincount(
        parts, minlength=num_partitions
    )


def _run_engine(engine, keys, payloads, num_partitions, use_hash, lanes=None):
    task = engine.begin_partition(
        keys, payloads, num_partitions, use_hash, lanes=lanes
    )
    try:
        out_keys, out_payloads = task.scatter()
        return out_keys, out_payloads, task.counts, task.lane_counts
    finally:
        task.close()


class TestByteIdentity:
    @pytest.mark.parametrize("use_hash", [False, True])
    @pytest.mark.parametrize("fanout_bits", [4, 7, 10, 13])
    def test_fanout_sweep(self, rng, use_hash, fanout_bits):
        num_partitions = 1 << fanout_bits
        keys = rng.integers(0, 2**32, size=60_000, dtype=np.uint32)
        payloads = rng.integers(0, 2**32, size=60_000, dtype=np.uint32)
        ref_k, ref_p, ref_c = _reference(keys, payloads, num_partitions, use_hash)
        with ExecutionEngine(workers=4, kind="thread") as engine:
            got_k, got_p, got_c, _ = _run_engine(
                engine, keys, payloads, num_partitions, use_hash
            )
        assert np.array_equal(ref_k, got_k)
        assert np.array_equal(ref_p, got_p)
        assert np.array_equal(ref_c, got_c)

    @pytest.mark.parametrize("kind", ["serial", "thread", "process"])
    def test_backends_agree(self, rng, kind):
        keys = rng.integers(0, 2**32, size=30_000, dtype=np.uint32)
        payloads = np.arange(30_000, dtype=np.uint32)
        ref_k, ref_p, ref_c = _reference(keys, payloads, 256, True)
        with ExecutionEngine(workers=3, kind=kind) as engine:
            got_k, got_p, got_c, _ = _run_engine(
                engine, keys, payloads, 256, True
            )
        assert np.array_equal(ref_k, got_k)
        assert np.array_equal(ref_p, got_p)
        assert np.array_equal(ref_c, got_c)

    def test_zipf_skew(self, rng):
        keys = (rng.zipf(1.3, size=80_000) % (2**32)).astype(np.uint32)
        payloads = np.arange(80_000, dtype=np.uint32)
        for use_hash in (False, True):
            ref_k, ref_p, ref_c = _reference(keys, payloads, 512, use_hash)
            with ExecutionEngine(workers=5, kind="thread") as engine:
                got_k, got_p, got_c, _ = _run_engine(
                    engine, keys, payloads, 512, use_hash
                )
            assert np.array_equal(ref_k, got_k)
            assert np.array_equal(ref_p, got_p)
            assert np.array_equal(ref_c, got_c)

    def test_empty_partitions(self):
        # only 3 of 4096 partitions populated (radix keeps low bits)
        keys = np.tile(
            np.array([0, 5, 4095], dtype=np.uint32), 1000
        )
        payloads = np.arange(keys.shape[0], dtype=np.uint32)
        ref_k, ref_p, ref_c = _reference(keys, payloads, 4096, False)
        with ExecutionEngine(workers=4, kind="thread") as engine:
            got_k, got_p, got_c, _ = _run_engine(
                engine, keys, payloads, 4096, False
            )
        assert np.array_equal(ref_k, got_k)
        assert np.array_equal(ref_p, got_p)
        assert int((got_c > 0).sum()) == 3

    def test_single_tuple_and_tiny_inputs(self):
        for n in (1, 2, 3, 7):
            keys = np.arange(n, dtype=np.uint32)
            payloads = keys[::-1].copy()
            ref_k, ref_p, ref_c = _reference(keys, payloads, 16, True)
            with ExecutionEngine(workers=4, kind="thread") as engine:
                got_k, got_p, got_c, _ = _run_engine(
                    engine, keys, payloads, 16, True
                )
            assert np.array_equal(ref_k, got_k)
            assert np.array_equal(ref_p, got_p)

    def test_lane_counts_match_partitioner(self, rng):
        config = PartitionerConfig(num_partitions=64)
        keys = rng.integers(0, 2**32, size=10_000, dtype=np.uint32)
        payloads = np.arange(10_000, dtype=np.uint32)
        parts = np.asarray(
            partition_of(keys, 64, config.uses_hash)
        ).astype(np.int64)
        lanes = config.num_lanes
        expected = np.zeros((64, lanes), dtype=np.int64)
        lane_of = np.arange(10_000, dtype=np.int64) % lanes
        np.add.at(expected, (parts, lane_of), 1)
        with ExecutionEngine(workers=3, kind="thread") as engine:
            _, _, _, lane_counts = _run_engine(
                engine, keys, payloads, 64, config.uses_hash, lanes=lanes
            )
        assert np.array_equal(expected, lane_counts)


@pytest.fixture(scope="module")
def grouping_engines():
    """One 3-worker engine per backend, with tiny morsels so small
    inputs still split; the process one forks even for tiny inputs."""
    engines = {
        kind: ExecutionEngine(
            workers=3, kind=kind, morsel_tuples=37, small_input_tuples=0
        )
        for kind in ("serial", "thread", "process")
    }
    yield engines
    for engine in engines.values():
        engine.close()


@settings(max_examples=30, deadline=None)
@given(
    n=st.integers(0, 400),
    fanout_bits=st.integers(1, 9),
    groups_seed=st.integers(0, 2**16),
    num_groups=st.integers(1, 5),
)
def test_grouped_scatter_is_a_stable_sort_by_group(
    grouping_engines, n, fanout_bits, groups_seed, num_groups
):
    """``task.scatter(groups=m)`` on every backend: the columns of a
    stable sort by ``m[parts]`` and bounds at the group totals — also
    for fewer tuples than workers and groups no partition maps to."""
    rng = np.random.default_rng(groups_seed)
    num_partitions = 1 << fanout_bits
    keys = rng.integers(0, 2**32, size=n, dtype=np.uint32)
    payloads = np.arange(n, dtype=np.uint32)
    groups = rng.integers(0, num_groups, size=num_partitions)
    mapped = groups[
        np.asarray(partition_of(keys, num_partitions, True)).astype(np.int64)
    ]
    order = np.argsort(mapped, kind="stable")
    totals = np.bincount(mapped, minlength=int(groups.max()) + 1)
    for kind, engine in grouping_engines.items():
        with engine.begin_partition(
            keys, payloads, num_partitions, True
        ) as task:
            got_k, got_p, bounds = task.scatter(groups=groups)
        assert np.array_equal(got_k, keys[order]), kind
        assert np.array_equal(got_p, payloads[order]), kind
        assert bounds[0] == 0 and np.array_equal(np.diff(bounds), totals), kind


def test_grouped_scatter_rejects_a_bad_map():
    keys = np.arange(50, dtype=np.uint32)
    with ExecutionEngine(workers=2, kind="thread") as engine:
        for groups in (np.zeros(8, dtype=np.int64), np.full(16, -1)):
            with engine.begin_partition(keys, keys, 16, True) as task:
                with pytest.raises(ConfigurationError):
                    task.scatter(groups=groups)


class TestMorselUnits:
    def test_plan_morsels_covers_input(self):
        for n in (0, 1, 10, 1000, 123457):
            for workers in (1, 3, 8):
                chunks = plan_morsels(n, workers, morsel_tuples=100)
                assert chunks[0][0] == 0
                assert chunks[-1][1] == n
                for (a, b), (c, d) in zip(chunks, chunks[1:]):
                    assert b == c and b >= a
                if n:
                    sizes = [hi - lo for lo, hi in chunks]
                    assert max(sizes) - min(sizes) <= 1 or max(sizes) <= 100

    def test_plan_morsels_empty(self):
        assert plan_morsels(0, 4, morsel_tuples=100) == [(0, 0)]

    @pytest.mark.parametrize("workers", [1, 2, 7])
    @pytest.mark.parametrize("n", [1, 99, 100, 101, 1234])
    def test_serial_engine_plans_no_morsel_per_worker(self, rng, workers, n):
        """One thread splits only to bound the morsel size: a serial
        engine yields ceil(n / morsel_tuples) morsels whatever its
        worker count (it used to run ``workers`` half-size kernels and
        a merge on one thread), and the bytes do not move."""
        keys = rng.integers(0, 2**32, size=n, dtype=np.uint32)
        payloads = np.arange(n, dtype=np.uint32)
        with ExecutionEngine(
            workers=workers, kind="serial", morsel_tuples=100
        ) as engine:
            with engine.begin_partition(keys, payloads, 16, True) as task:
                assert task.stats.backend == "serial"
                assert task.stats.num_morsels == -(-n // 100)
                out_keys, out_payloads = task.scatter()
        ref_k, ref_p, _ = _reference(keys, payloads, 16, True)
        assert np.array_equal(ref_k, out_keys)
        assert np.array_equal(ref_p, out_payloads)

    def test_merge_histograms_prefix_sums(self):
        hists = np.array([[2, 0, 1], [1, 3, 0]], dtype=np.int64)
        counts, partition_base, dest_base = merge_histograms(hists)
        assert counts.tolist() == [3, 3, 1]
        assert partition_base.tolist() == [0, 3, 6]
        # chunk 0 writes partitions at their bases, chunk 1 after it
        assert dest_base.tolist() == [[0, 3, 6], [2, 3, 7]]

    def test_morsel_histogram_and_scatter_roundtrip(self, rng):
        keys = rng.integers(0, 2**32, size=5_000, dtype=np.uint32)
        payloads = np.arange(5_000, dtype=np.uint32)
        parts, hist, _ = kernels.hash_histogram(keys, 32, True)
        counts, _, dest_base = merge_histograms(hist[None, :])
        out_keys = np.empty_like(keys)
        out_payloads = np.empty_like(payloads)
        kernels.stable_scatter(
            keys, payloads, parts, dest_base[0], 32, out_keys, out_payloads
        )
        ref_k, ref_p, ref_c = _reference(keys, payloads, 32, True)
        assert np.array_equal(ref_k, out_keys)
        assert np.array_equal(ref_p, out_payloads)
        assert np.array_equal(ref_c, counts)


class TestEngineApi:
    def test_resolve_engine_specs(self):
        assert resolve_engine(None) is None
        engine = ExecutionEngine(workers=2)
        assert resolve_engine(engine) is engine
        for spec in ("serial", "parallel", "thread", "process"):
            resolved = resolve_engine(spec, threads=2)
            assert isinstance(resolved, ExecutionEngine)
            resolved.close()
        with pytest.raises(ConfigurationError):
            resolve_engine("warp-drive")

    def test_task_close_is_idempotent_and_guards_scatter(self, rng):
        keys = rng.integers(0, 2**32, size=100, dtype=np.uint32)
        payloads = np.arange(100, dtype=np.uint32)
        with ExecutionEngine(workers=2, kind="thread") as engine:
            task = engine.begin_partition(keys, payloads, 16, True)
            task.scatter()
            with pytest.raises(ConfigurationError):
                task.scatter()
            task.close()
            task.close()
            with pytest.raises(ConfigurationError):
                task.scatter()

    def test_map_tasks_preserves_order(self):
        with ExecutionEngine(workers=4, kind="thread") as engine:
            results = engine.map_tasks(lambda x: x * x, range(50))
        assert results == [x * x for x in range(50)]

    def test_submit_returns_future(self):
        with ExecutionEngine(workers=2, kind="thread") as engine:
            future = engine.submit(lambda a, b: a + b, 2, b=3)
            assert future.result(timeout=10) == 5

    def test_submit_serial_runs_inline(self):
        with ExecutionEngine(workers=1, kind="serial") as engine:
            future = engine.submit(lambda: 42)
            assert future.done() and future.result() == 42

    def test_submit_propagates_exceptions(self):
        for kind, workers in (("serial", 1), ("thread", 2)):
            with ExecutionEngine(workers=workers, kind=kind) as engine:
                future = engine.submit(_raise_value_error)
                with pytest.raises(ValueError, match="boom"):
                    future.result(timeout=10)


class TestConsumers:
    def test_fpga_partitioner_engine_matches_legacy(self, rng):
        config = PartitionerConfig(num_partitions=128)
        keys = rng.integers(0, 2**32, size=40_000, dtype=np.uint32)
        payloads = np.arange(40_000, dtype=np.uint32)
        ref = FpgaPartitioner(config).partition(keys, payloads)
        out = FpgaPartitioner(config, engine="thread", threads=4).partition(
            keys, payloads
        )
        assert np.array_equal(ref.counts, out.counts)
        assert np.array_equal(
            ref.lines_per_partition, out.lines_per_partition
        )
        assert ref.dummy_slots == out.dummy_slots
        for a, b in zip(ref.partition_keys, out.partition_keys):
            assert np.array_equal(a, b)
        for a, b in zip(ref.partition_payloads, out.partition_payloads):
            assert np.array_equal(a, b)

    def test_fpga_pad_overflow_parity(self):
        config = PartitionerConfig(
            num_partitions=64, output_mode=OutputMode.PAD
        )
        keys = np.zeros(50_000, dtype=np.uint32)
        payloads = np.arange(50_000, dtype=np.uint32)

        def outcome(partitioner):
            try:
                partitioner.partition(keys, payloads)
                return None
            except PartitionOverflowError as error:
                return (error.partition, error.capacity)

        ref = outcome(FpgaPartitioner(config))
        got = outcome(FpgaPartitioner(config, engine="thread", threads=4))
        assert ref is not None and ref == got

    def test_swwc_engine_matches_serial(self, rng):
        keys = rng.integers(0, 2**32, size=20_000, dtype=np.uint32)
        payloads = np.arange(20_000, dtype=np.uint32)
        ref = swwc_partition(keys, payloads, 128, True, threads=4)
        with ExecutionEngine(workers=4, kind="thread") as engine:
            got = swwc_partition(
                keys, payloads, 128, True, threads=4, engine=engine
            )
        for a, b in zip(ref[0], got[0]):
            assert np.array_equal(a, b)
        for a, b in zip(ref[1], got[1]):
            assert np.array_equal(a, b)
        assert np.array_equal(ref[2], got[2])
        assert ref[3].full_buffer_flushes == got[3].full_buffer_flushes
        assert ref[3].partial_buffer_flushes == got[3].partial_buffer_flushes
        assert ref[3].tuples_written == got[3].tuples_written

    def test_cpu_partitioner_engine_matches(self, rng):
        keys = rng.integers(0, 2**32, size=20_000, dtype=np.uint32)
        ref = CpuPartitioner(num_partitions=256, threads=4).partition(keys)
        got = CpuPartitioner(
            num_partitions=256, threads=4, engine="thread"
        ).partition(keys)
        assert np.array_equal(ref.counts, got.counts)
        for a, b in zip(ref.partition_keys, got.partition_keys):
            assert np.array_equal(a, b)

    def test_joins_match_with_engine(self):
        from repro.join.hybrid_join import hybrid_join
        from repro.join.radix_join import cpu_radix_join
        from repro.workloads.relations import make_workload

        workload = make_workload("A", scale=20_000, seed=3)
        ref = cpu_radix_join(
            workload, num_partitions=64, threads=4, collect_payloads=True
        )
        got = cpu_radix_join(
            workload,
            num_partitions=64,
            threads=4,
            collect_payloads=True,
            engine="thread",
        )
        assert ref.matches == got.matches
        assert np.array_equal(ref.r_payloads, got.r_payloads)
        assert np.array_equal(ref.s_payloads, got.s_payloads)

        ref_h = hybrid_join(workload, threads=4, collect_payloads=True)
        got_h = hybrid_join(
            workload, threads=4, collect_payloads=True, engine="thread"
        )
        assert ref_h.matches == got_h.matches
        assert np.array_equal(ref_h.r_payloads, got_h.r_payloads)
        assert ref_h.timing.partitioner == got_h.timing.partitioner


class TestKernel:
    @pytest.mark.parametrize("use_hash", [False, True])
    @pytest.mark.parametrize("num_partitions", [2, 64, 8192])
    def test_partition_function_bit_exact(self, rng, use_hash, num_partitions):
        keys = rng.integers(0, 2**32, size=4_000, dtype=np.uint32)
        kernel = partition_function(num_partitions, use_hash)
        expected = np.asarray(
            partition_of(keys, num_partitions, use_hash)
        ).astype(np.int64)
        assert np.array_equal(expected, kernel(keys))
        out = np.empty(keys.shape[0], dtype=np.uint16)
        kernel(keys, out=out)
        assert np.array_equal(expected, out.astype(np.int64))

    def test_partition_function_wide_keys(self, rng):
        keys = rng.integers(0, 2**64, size=4_000, dtype=np.uint64)
        kernel = partition_function(1024, True)
        expected = np.asarray(partition_of(keys, 1024, True)).astype(np.int64)
        assert np.array_equal(expected, kernel(keys))

    def test_partition_function_is_memoised(self):
        assert partition_function(64, True) is partition_function(64, True)
