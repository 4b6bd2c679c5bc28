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

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import outputs_identical
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
    extract_columns,
    piece_config,
)
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.optimize.isolation import hot_partitions, partition_isolated
from repro.platform.machine import XeonFpgaPlatform
from repro.workloads.relations import make_relation


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
