"""The "partitioning in pieces" core (repro.core.pieces).

One property carries the repo's defining invariant for every caller of
the core at once: any relation, cut into pieces at arbitrary
(lane-misaligned) points, each piece partitioned under ``piece_config``
and folded into one ``Accounting``, stitched through ``PieceColumn`` —
is byte-identical to one ``FpgaPartitioner.partition`` call, or raises
the same ``PartitionOverflowError``.  Plus the (de)serialisers that
parse manifests and HELLO frames, and the single-node ``hist`` fallback
pinned against the values the re-hashing implementation produced.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.analysis.verify import outputs_identical
from repro.core import pieces as pieces_module
from repro.core.modes import (
    HashKind,
    LayoutMode,
    OutputMode,
    PartitionerConfig,
)
from repro.core.partitioner import FpgaPartitioner, PartitionedOutput
from repro.core.pieces import (
    Accounting,
    Layout,
    PieceColumn,
    batch_layouts,
    extract_columns,
    normalize_columns,
    piece_config,
)
from repro.core.tuples import DUMMY_PAYLOAD
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.optimize.isolation import hot_partitions, partition_isolated
from repro.platform.machine import XeonFpgaPlatform
from repro.workloads.relations import Relation, make_relation


@st.composite
def piecewise_runs(draw):
    """(config, keys, cut points, on_overflow, hot keys)."""
    layout_mode = draw(st.sampled_from(list(LayoutMode)))
    config = PartitionerConfig(
        num_partitions=draw(st.sampled_from([8, 32, 128])),
        tuple_bytes=(
            8
            if layout_mode is LayoutMode.VRID
            else draw(st.sampled_from([8, 16, 32, 64]))
        ),
        output_mode=draw(st.sampled_from(list(OutputMode))),
        layout_mode=layout_mode,
        hash_kind=draw(st.sampled_from(list(HashKind))),
    )
    n = draw(st.integers(min_value=40, max_value=6_000))
    distribution = draw(st.sampled_from(["random", "linear", "zipf"]))
    keys = make_relation(
        n,
        distribution,
        seed=draw(st.integers(min_value=0, max_value=2**16)),
        zipf_factor=draw(st.sampled_from([0.5, 1.05, 1.5])),
    ).keys
    # cut points deliberately off the lane grid: k * lanes + r, r != 0
    # (with one lane every cut is trivially aligned)
    lanes = config.num_lanes
    cuts = sorted(
        {
            min(n - 1, k * lanes + draw(st.integers(1, max(1, lanes - 1))))
            for k in draw(
                st.lists(st.integers(0, n // lanes), max_size=6)
            )
        }
    )
    hot_keys = ()
    if draw(st.booleans()):
        values, frequency = np.unique(keys, return_counts=True)
        hot_keys = tuple(
            int(k) for k in values[np.argsort(frequency)[-3:]]
        )
    on_overflow = draw(st.sampled_from(["raise", "hist"]))
    return config, keys, cuts, on_overflow, hot_keys


def partition_in_pieces(config, keys, cuts, on_overflow, hot):
    """The recipe, spelled out the way every subsystem runs it."""
    keys, positions = extract_columns(config, keys)
    accounting = Accounting(config)
    pieces = []
    with FpgaPartitioner(piece_config(config)) as partitioner:
        for low, high in zip([0] + cuts, cuts + [len(keys)]):
            if low == high:
                continue
            assert accounting.observe(keys[low:high]) == low
            pieces.append(
                partitioner.partition(keys[low:high], positions[low:high])
            )
    layout = accounting.finalize(on_overflow, hot=hot)

    def stitched(field):
        return PieceColumn(
            config.num_partitions,
            lambda p: np.concatenate(
                [getattr(piece, field)[p] for piece in pieces]
            ),
        )

    return PartitionedOutput.from_layout(
        layout,
        stitched("partition_keys"),
        stitched("partition_payloads"),
        produced_by="pieces",
    )


class TestPiecesEqualOneCall:
    @settings(max_examples=80, deadline=None)
    @given(run=piecewise_runs())
    def test_any_split_any_mode(self, run):
        config, keys, cuts, on_overflow, hot_keys = run
        hot = hot_partitions(
            hot_keys, config.num_partitions, config.uses_hash
        )
        with FpgaPartitioner(config) as partitioner:
            try:
                reference = partition_isolated(
                    partitioner, keys, hot_keys=hot_keys,
                    on_overflow=on_overflow,
                )
            except PartitionOverflowError as overflow:
                with pytest.raises(PartitionOverflowError) as ours:
                    partition_in_pieces(
                        config, keys, cuts, on_overflow, hot
                    )
                assert (
                    ours.value.partition,
                    ours.value.capacity,
                    ours.value.tuples_seen,
                ) == (
                    overflow.partition,
                    overflow.capacity,
                    overflow.tuples_seen,
                )
                return
            ours = partition_in_pieces(config, keys, cuts, on_overflow, hot)
            assert outputs_identical(ours, reference)
            assert ours.isolated_partitions == reference.isolated_partitions

            # against the static call the isolated layout differs only
            # in where the carved-out regions start
            static = partitioner.partition(keys, on_overflow="hist")
            if static.config == ours.config:
                assert outputs_identical(
                    ours, static, modulo_isolation=True
                )
            else:
                assert outputs_identical(
                    ours, static, check_accounting=False
                )

    def test_oracle_names_the_first_difference(self):
        config = PartitionerConfig(num_partitions=8)
        keys = make_relation(500, "random", seed=1).keys
        reference = FpgaPartitioner(config).partition(keys)
        ours = partition_in_pieces(config, keys, [13, 222], "raise", ())
        assert outputs_identical(ours, reference)
        ours.partition_payloads[5] = ours.partition_payloads[5][::-1].copy()
        report = outputs_identical(ours, reference)
        assert not report
        assert report.failures == ["partition 5: partition_payloads differ"]
        ours.bytes_read += 64
        assert outputs_identical(ours, reference, check_accounting=False).ok is False
        ours.partition_payloads[5] = reference.partition_payloads[5]
        assert outputs_identical(ours, reference).failures == [
            f"bytes_read: {ours.bytes_read} vs {reference.bytes_read}"
        ]
        assert outputs_identical(ours, reference, check_accounting=False)


class TestSerialisers:
    @pytest.mark.parametrize("output_mode", list(OutputMode))
    @pytest.mark.parametrize("layout_mode", list(LayoutMode))
    @pytest.mark.parametrize("pad_tuples", [None, 0, 77])
    def test_config_roundtrip(self, output_mode, layout_mode, pad_tuples):
        config = PartitionerConfig(
            num_partitions=512,
            output_mode=output_mode,
            layout_mode=layout_mode,
            hash_kind=HashKind.RADIX,
            pad_tuples=pad_tuples,
        )
        wire = json.loads(json.dumps(config.to_dict()))
        assert PartitionerConfig.from_dict(wire) == config

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: None,
            lambda d: "PAD/RID",
            lambda d: [d],
            lambda d: {k: v for k, v in d.items() if k != "hash_kind"},
            lambda d: {k: v for k, v in d.items() if k != "pad_tuples"},
            lambda d: {**d, "output_mode": "FAST"},
            lambda d: {**d, "layout_mode": None},
            lambda d: {**d, "num_partitions": 48},
            lambda d: {**d, "num_partitions": "many"},
            lambda d: {**d, "num_partitions": None},
            lambda d: {**d, "tuple_bytes": 12},
            lambda d: {**d, "pad_tuples": -1},
            lambda d: {**d, "pad_tuples": [3]},
            lambda d: {**d, "layout_mode": "VRID", "tuple_bytes": 16},
        ],
    )
    def test_malformed_config_rejected(self, mutate):
        # from_dict parses HELLO frames off the network
        good = PartitionerConfig(num_partitions=64).to_dict()
        with pytest.raises(ConfigurationError):
            PartitionerConfig.from_dict(mutate(good))

    def test_layout_roundtrip(self):
        config = PartitionerConfig(
            num_partitions=16, output_mode=OutputMode.PAD
        )
        accounting = Accounting(config)
        accounting.observe(
            make_relation(3_000, "zipf", seed=3, zipf_factor=1.5).keys
        )
        layout = accounting.finalize("hist")
        assert layout.config.output_mode is OutputMode.HIST
        back = Layout.from_dict(json.loads(json.dumps(layout.to_dict())))
        assert back.config == layout.config
        assert back.requested_config == config
        for field in ("counts", "lines_per_partition", "base_lines"):
            assert np.array_equal(getattr(back, field), getattr(layout, field))
        assert (back.bytes_read, back.bytes_written, back.dummy_slots) == (
            layout.bytes_read, layout.bytes_written, layout.dummy_slots
        )


class TestHistFallback:
    """The single-node fallback scatters once under the HIST layout;
    its numbers are pinned to what the re-hashing retry reported."""

    @pytest.mark.parametrize("engine", [None, "thread"])
    @pytest.mark.parametrize(
        "layout_mode, bytes_read, qpi_read",
        [
            (LayoutMode.RID, 1_200_000, 800_000),
            (LayoutMode.VRID, 600_000, 400_000),
        ],
    )
    def test_surcharge_and_platform_counters(
        self, engine, layout_mode, bytes_read, qpi_read
    ):
        config = PartitionerConfig(
            num_partitions=64,
            output_mode=OutputMode.PAD,
            layout_mode=layout_mode,
        )
        relation = make_relation(50_000, "zipf", seed=11, zipf_factor=1.2)
        platform = XeonFpgaPlatform()
        with FpgaPartitioner(
            config, platform=platform, engine=engine, threads=2
        ) as partitioner:
            with pytest.raises(PartitionOverflowError):
                partitioner.partition(relation)
            assert platform.qpi.bytes_read == 0
            output = partitioner.partition(relation, on_overflow="hist")
        assert output.config.output_mode is OutputMode.HIST
        assert output.config.layout_mode is layout_mode
        # HIST's two scans plus the aborted PAD scan (Section 5.4) ...
        assert output.bytes_read == bytes_read
        assert output.bytes_written == 414_336
        assert output.dummy_slots == 1_792
        assert int(output.lines_per_partition.sum()) == 6_474
        assert int(output.base_lines[-1]) == 6_448
        # ... of which the link carried the completed HIST run
        assert platform.qpi.bytes_read == qpi_read
        assert platform.qpi.bytes_written == 414_336
        with FpgaPartitioner(
            piece_config(config)
        ) as hist:
            assert outputs_identical(
                output, hist.partition(*extract_columns(config, relation)),
                check_accounting=False,
            )


# ---------------------------------------------------------------------------
# The batch layout pass


def _layout_fields(layout):
    """Every field of a Layout, arrays as lists, for == comparison."""
    return {
        field.name: (
            value.tolist() if isinstance(value, np.ndarray) else value
        )
        for field in dataclasses.fields(layout)
        for value in [getattr(layout, field.name)]
    }


@st.composite
def lane_batches(draw):
    """(config, (runs, P, lanes) lane matrix, policy, hot partitions)."""
    layout_mode = draw(st.sampled_from(list(LayoutMode)))
    config = PartitionerConfig(
        num_partitions=draw(st.sampled_from([2, 8, 64])),
        tuple_bytes=(
            8
            if layout_mode is LayoutMode.VRID
            else draw(st.sampled_from([8, 16, 32, 64]))
        ),
        output_mode=draw(st.sampled_from(list(OutputMode))),
        layout_mode=layout_mode,
        pad_tuples=draw(st.sampled_from([None, 0, 5, 64])),
    )
    runs = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    shape = (runs, config.num_partitions, config.num_lanes)
    lane_matrix = rng.integers(
        0, draw(st.sampled_from([1, 3, 40])), size=shape
    ).astype(np.int64)
    # skew some runs into one partition so PAD capacity overflows there
    for run in draw(st.lists(st.integers(0, runs - 1), max_size=3)):
        lane_matrix[run, draw(st.integers(0, shape[1] - 1))] += draw(
            st.integers(1, 400)
        )
    hot = draw(
        st.lists(
            st.integers(0, config.num_partitions - 1),
            max_size=2,
            unique=True,
        )
    )
    policy = draw(st.sampled_from(["raise", "hist", "cpu"]))
    return config, lane_matrix, policy, sorted(hot)


class TestBatchLayouts:
    @settings(max_examples=150, deadline=None)
    @given(batch=lane_batches())
    def test_rows_equal_one_run_finalize(self, batch):
        """Row r of the batch pass is ``Accounting(cfg, row).finalize``
        of run r alone; under ``raise`` the batch reports the first
        overflowing run exactly as that run alone does."""
        config, lane_matrix, policy, hot = batch
        expected, error = [], None
        for row in lane_matrix:
            try:
                expected.append(
                    Accounting(config, row.copy()).finalize(policy, hot)
                )
            except PartitionOverflowError as overflow:
                error = overflow
                break
        if error is not None:
            with pytest.raises(PartitionOverflowError) as ours:
                batch_layouts(config, lane_matrix, policy, hot)
            assert (
                ours.value.partition,
                ours.value.capacity,
                ours.value.tuples_seen,
            ) == (error.partition, error.capacity, error.tuples_seen)
            return
        got = batch_layouts(config, lane_matrix, policy, hot)
        assert [_layout_fields(layout) for layout in got] == [
            _layout_fields(layout) for layout in expected
        ]

    @pytest.mark.parametrize("policy", ["raise", "hist", "cpu"])
    def test_one_overflowing_request_in_a_batch(self, policy):
        """Real requests, one of them Zipf: the batch pass reports what
        ``partition()`` of that request alone does, and leaves the
        others as their own solo runs."""
        config = PartitionerConfig(
            num_partitions=64, output_mode=OutputMode.PAD
        )
        requests = [
            make_relation(3_000, "random", seed=1).keys,
            make_relation(5_000, "zipf", seed=2, zipf_factor=1.3).keys,
            make_relation(4_001, "random", seed=3).keys,
        ]
        _, _, lane_matrix = kernels.partition_batch(
            [(keys, None) for keys in requests],
            config.num_partitions, config.uses_hash, config.num_lanes,
        )
        partitioner = FpgaPartitioner(config)
        if policy == "raise":
            with pytest.raises(PartitionOverflowError) as solo:
                partitioner.partition(requests[1])
            with pytest.raises(PartitionOverflowError) as ours:
                batch_layouts(config, lane_matrix, policy)
            assert (
                ours.value.partition,
                ours.value.capacity,
                ours.value.tuples_seen,
            ) == (
                solo.value.partition,
                solo.value.capacity,
                solo.value.tuples_seen,
            )
            return
        layouts = batch_layouts(config, lane_matrix, policy)
        assert layouts[0].overflow is layouts[2].overflow is None
        assert layouts[0].config == layouts[2].config == config
        if policy == "cpu":
            assert layouts[1].overflow is not None
        else:
            assert layouts[1].config.output_mode is OutputMode.HIST
            assert layouts[1].aborted_scan_bytes > 0
        for keys, layout in zip(requests, layouts):
            if layout.overflow is None:
                solo = partitioner.partition(keys, on_overflow=policy)
                assert layout.config == solo.config
                assert layout.bytes_read == solo.bytes_read
                assert layout.dummy_slots == solo.dummy_slots
                assert np.array_equal(layout.base_lines, solo.base_lines)


# ---------------------------------------------------------------------------
# Generated record ids


class TestGeneratedIds:
    def test_bare_arrays_never_scan_generated_ids(self, monkeypatch):
        def scan(payloads):
            raise AssertionError("generated record ids were scanned")

        monkeypatch.setattr(pieces_module, "check_payloads_valid", scan)
        keys = make_relation(5_000, "random", seed=4).keys
        rid = PartitionerConfig(num_partitions=16)
        vrid = dataclasses.replace(rid, layout_mode=LayoutMode.VRID)
        with FpgaPartitioner(rid) as partitioner:
            output = partitioner.partition(keys)
            partitioner.partition_many([keys, keys[:100]])
        assert np.array_equal(
            np.sort(np.concatenate(list(output.partition_payloads))),
            np.arange(keys.shape[0], dtype=np.uint32),
        )
        relation = make_relation(3_000, "random", seed=5)
        with FpgaPartitioner(vrid) as partitioner:
            partitioner.partition(relation)
            partitioner.partition_many([relation])
        assert normalize_columns(rid, keys)[1] is None
        assert np.array_equal(
            extract_columns(vrid, relation)[1],
            np.arange(len(relation), dtype=np.uint32),
        )

    def test_caller_payloads_holding_the_dummy_still_raise(self):
        keys = make_relation(1_000, "random", seed=6).keys
        payloads = np.arange(keys.shape[0], dtype=np.uint32)
        payloads[17] = DUMMY_PAYLOAD
        config = PartitionerConfig(num_partitions=16)
        partitioner = FpgaPartitioner(config)
        with pytest.raises(ConfigurationError):
            partitioner.partition(keys, payloads)
        with pytest.raises(ConfigurationError):
            partitioner.partition_many([keys], [payloads])
        with pytest.raises(ConfigurationError):
            partitioner.partition(Relation(keys=keys, payloads=payloads))

    def test_two_to_the_32_generated_ids_rejected_by_length(self):
        """Id 2**32 - 1 is the dummy marker: the length check alone
        stops it (a zero-stride view — nothing of that size exists)."""
        huge = np.lib.stride_tricks.as_strided(
            np.zeros(1, dtype=np.uint32), shape=(2**32,), strides=(0,)
        )
        relation = Relation(keys=huge, payloads=huge)
        vrid = PartitionerConfig(layout_mode=LayoutMode.VRID)
        with pytest.raises(ConfigurationError, match="dummy"):
            normalize_columns(vrid, relation)
        short = Relation(keys=huge[:-1], payloads=huge[:-1])
        assert normalize_columns(vrid, short)[1] is None
