"""The plan layer: fused one-pass execution ≡ the staged operators.

The heart of this file is the property test: for every chain shape the
plan layer supports, across HIST/PAD output modes, RID/VRID layouts,
serial and threaded engines, and in-memory vs spilled inputs, the
fused executor must produce **row-identical** results to the staged
materializing pipeline.  The staged path is the oracle — it is built
from the operators the rest of the suite already pins.
"""

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import kernels
from repro.core.modes import (
    HashKind,
    LayoutMode,
    OutputMode,
    PartitionerConfig,
)
from repro.errors import ConfigurationError, PartitionOverflowError
from repro.exec.engine import ExecutionEngine
from repro.obs.tracing import Tracer
from repro.ops.groupby import partitioned_groupby
from repro.plan import (
    FusionDeclined,
    compile_plan,
    execute_plan,
    groupby_query,
    join_groupby_query,
    join_query,
    partition_query,
)
from repro.storage import RelationStore, SpillPartitioner
from repro.workloads.relations import Relation, make_relation, make_workload
from tests.conftest import assert_matches_reference_groupby, needs_native


def _keys(n: int, seed: int, key_space: int = 64) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, key_space, size=n, dtype=np.uint32)


def _relation(n: int, seed: int, key_space: int = 64) -> Relation:
    rng = np.random.default_rng(seed + 1)
    return Relation(
        keys=_keys(n, seed, key_space),
        payloads=rng.integers(0, 1000, size=n, dtype=np.uint32),
    )


def _assert_same_result(fused, staged, aggregate=None):
    assert fused.fused and not staged.fused
    if fused.matches is not None or staged.matches is not None:
        assert fused.matches == staged.matches
    for attr in ("r_payloads", "s_payloads", "group_keys", "group_values"):
        a, b = getattr(fused, attr), getattr(staged, attr)
        assert (a is None) == (b is None), attr
        if a is not None:
            assert np.array_equal(a, b), attr
    if aggregate is not None:
        assert fused.aggregate == staged.aggregate == aggregate


# ---------------------------------------------------------------------------
# The identity property: fused ≡ staged
# ---------------------------------------------------------------------------

MODES = [
    (OutputMode.HIST, LayoutMode.RID),
    (OutputMode.HIST, LayoutMode.VRID),
    (OutputMode.PAD, LayoutMode.RID),
    (OutputMode.PAD, LayoutMode.VRID),
]


@given(
    n_r=st.integers(min_value=20, max_value=300),
    n_s=st.integers(min_value=20, max_value=300),
    seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from(MODES),
    engine_kind=st.sampled_from([None, "thread"]),
    aggregate=st.sampled_from(["sum", "count", "min", "max", "mean"]),
)
@settings(max_examples=40, deadline=None)
def test_fused_join_groupby_equals_staged(
    n_r, n_s, seed, mode, engine_kind, aggregate
):
    output_mode, layout_mode = mode
    r = _relation(n_r, seed)
    s = _relation(n_s, seed + 7)
    config = PartitionerConfig(
        num_partitions=16, output_mode=output_mode, layout_mode=layout_mode
    )
    plan = join_groupby_query(
        r,
        s,
        aggregate=aggregate,
        config=config,
        on_overflow="hist",
        collect_payloads=True,
    )
    engine = (
        ExecutionEngine(workers=2, kind="thread")
        if engine_kind == "thread"
        else None
    )
    try:
        fused = execute_plan(plan, engine=engine, fused=True)
        staged = execute_plan(plan, engine=engine, fused=False)
    finally:
        if engine is not None:
            engine.close()
    assert fused.declined is None
    _assert_same_result(fused, staged, aggregate)


@given(
    n=st.integers(min_value=10, max_value=400),
    seed=st.integers(min_value=0, max_value=2**16),
    mode=st.sampled_from(MODES),
    engine_kind=st.sampled_from([None, "thread"]),
    aggregate=st.sampled_from(["sum", "count", "min", "max", "mean"]),
)
@settings(max_examples=40, deadline=None)
def test_fused_groupby_equals_staged_and_reference(
    n, seed, mode, engine_kind, aggregate
):
    output_mode, layout_mode = mode
    keys = _keys(n, seed)
    rng = np.random.default_rng(seed + 3)
    values = rng.integers(0, 1000, size=n, dtype=np.uint32)
    config = PartitionerConfig(
        num_partitions=8, output_mode=output_mode, layout_mode=layout_mode
    )
    plan = groupby_query(
        keys, values=values, aggregate=aggregate, config=config,
        on_overflow="hist",
    )
    engine = (
        ExecutionEngine(workers=2, kind="thread")
        if engine_kind == "thread"
        else None
    )
    try:
        fused = execute_plan(plan, engine=engine, fused=True)
        staged = execute_plan(plan, engine=engine, fused=False)
    finally:
        if engine is not None:
            engine.close()
    _assert_same_result(fused, staged, aggregate)
    # and both match the dict-of-lists reference
    assert_matches_reference_groupby(
        fused.group_keys, fused.group_values, keys, values, aggregate
    )


@given(
    n_r=st.integers(min_value=200, max_value=1500),
    n_s=st.integers(min_value=200, max_value=1500),
    seed=st.integers(min_value=0, max_value=2**16),
    spill_sides=st.sampled_from(["r", "s", "both"]),
    aggregate=st.sampled_from(["sum", "count"]),
)
@settings(max_examples=8, deadline=None)
def test_fused_equals_staged_with_spilled_inputs(
    n_r, n_s, seed, spill_sides, aggregate
):
    """Spilled scans stream partition-by-partition through the fused
    chain; results stay identical to materializing the spill first."""
    config = PartitionerConfig(num_partitions=16)
    r_keys = _keys(n_r, seed)
    s_keys = _keys(n_s, seed + 11)

    def _spill(keys, root: Path, name: str):
        store = RelationStore.ingest(
            keys, root / name, chunk_tuples=257
        ).seal()
        return SpillPartitioner(config, max_bytes_in_memory=2_048).run(
            store, root / f"{name}-run"
        )

    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        r_in = _spill(r_keys, root, "r") if spill_sides in ("r", "both") \
            else r_keys
        s_in = _spill(s_keys, root, "s") if spill_sides in ("s", "both") \
            else s_keys
        plan = join_groupby_query(
            r_in, s_in, aggregate=aggregate, config=config,
            on_overflow="hist",
        )
        fused = execute_plan(plan, fused=True)
        staged = execute_plan(plan, fused=False)
        _assert_same_result(fused, staged, aggregate)
        spilled_names = {
            i.name for i in fused.inputs if i.spilled
        }
        expected = {"both": {"r", "s"}, "r": {"r"}, "s": {"s"}}[spill_sides]
        assert spilled_names == expected

        # groupby-only over one spill: payloads are the value column
        g_plan = groupby_query(
            _spill(s_keys, root, "g"), aggregate=aggregate
        )
        g_fused = execute_plan(g_plan, fused=True)
        g_staged = execute_plan(g_plan, fused=False)
        _assert_same_result(g_fused, g_staged, aggregate)


# ---------------------------------------------------------------------------
# Fusion rules and declines
# ---------------------------------------------------------------------------


class TestCompiler:
    def test_partition_only_plan_declines_fusion(self):
        plan = partition_query(_keys(500, 1), config=PartitionerConfig())
        with pytest.raises(FusionDeclined) as err:
            compile_plan(plan)
        assert "partition-only" in err.value.reason

    def test_declined_plan_still_executes_staged(self):
        plan = partition_query(_keys(500, 2), config=PartitionerConfig(
            num_partitions=8
        ))
        result = execute_plan(plan, fused=True)
        assert not result.fused
        assert result.declined is not None
        assert result.outputs is not None
        assert result.outputs[0].num_partitions == 8

    def test_platform_declines_fusion(self):
        from repro.platform.machine import XeonFpgaPlatform

        plan = join_query(
            _relation(100, 3), _relation(100, 4),
            config=PartitionerConfig(num_partitions=8),
        )
        with pytest.raises(FusionDeclined) as err:
            compile_plan(plan, platform=XeonFpgaPlatform())
        assert "platform" in err.value.reason

    def test_declined_plan_resolves_configs_like_a_fused_one(self):
        from repro.platform.machine import XeonFpgaPlatform

        wl = make_workload("A", scale=4096, seed=2)
        plan = join_query(wl.r, wl.s, collect_payloads=True)
        declined = execute_plan(plan, platform=XeonFpgaPlatform())
        staged = execute_plan(plan, fused=False)
        assert declined.declined is not None and not declined.fused
        assert declined.num_partitions == staged.num_partitions
        for attr in ("matches", "r_payloads", "s_payloads"):
            assert np.array_equal(
                getattr(declined, attr), getattr(staged, attr)
            ), attr

    def test_mismatched_join_configs_rejected(self):
        plan = join_query(_relation(100, 5), _relation(100, 6))
        plan = dataclasses_replace_partition(
            plan,
            PartitionerConfig(num_partitions=8),
            PartitionerConfig(num_partitions=16),
        )
        with pytest.raises(ConfigurationError, match="differently"):
            compile_plan(plan)

    def test_mixed_overflow_policies_rejected(self):
        import dataclasses

        plan = join_query(_relation(100, 7), _relation(100, 8))
        nodes = (
            dataclasses.replace(plan.partitions[0], on_overflow="hist"),
            dataclasses.replace(plan.partitions[1], on_overflow="cpu"),
        )
        plan = dataclasses.replace(plan, partitions=nodes)
        with pytest.raises(ConfigurationError, match="overflow"):
            compile_plan(plan)

    def test_spill_with_incompatible_config_rejected(self, tmp_path):
        spill_cfg = PartitionerConfig(num_partitions=16)
        store = RelationStore.ingest(
            _keys(1_000, 9), tmp_path / "s"
        ).seal()
        spill = SpillPartitioner(spill_cfg, max_bytes_in_memory=4_096).run(
            store, tmp_path / "run"
        )
        plan = groupby_query(
            spill, config=PartitionerConfig(num_partitions=64)
        )
        with pytest.raises(ConfigurationError, match="incompatible"):
            compile_plan(plan)

    def test_default_config_planned_for_cache_fit(self):
        plan = join_query(_relation(300, 10), _relation(300, 11))
        schedule = compile_plan(plan)
        from repro.optimize.optimizer import plan_fused_fanout

        assert schedule.num_partitions == plan_fused_fanout(300)

    def test_radix_config_shared_via_signature(self):
        config = PartitionerConfig(
            num_partitions=32, hash_kind=HashKind.RADIX
        )
        plan = join_query(_relation(100, 12), _relation(100, 13),
                          config=config)
        schedule = compile_plan(plan)
        assert all(
            c.hash_kind is HashKind.RADIX for c in schedule.configs
        )


def dataclasses_replace_partition(plan, cfg_r, cfg_s):
    import dataclasses

    nodes = (
        dataclasses.replace(plan.partitions[0], config=cfg_r),
        dataclasses.replace(plan.partitions[1], config=cfg_s),
    )
    return dataclasses.replace(plan, partitions=nodes)


# ---------------------------------------------------------------------------
# PAD overflow inside the fused pass
# ---------------------------------------------------------------------------


class TestFusedOverflow:
    def _skewed_plan(self, on_overflow):
        # all-equal keys overflow any PAD capacity at 16-way fan-out
        keys = np.zeros(4_096, dtype=np.uint32)
        s = _relation(512, 20)
        config = PartitionerConfig(
            num_partitions=16, output_mode=OutputMode.PAD
        )
        return join_groupby_query(
            Relation(keys=keys,
                     payloads=np.ones(4_096, dtype=np.uint32)),
            s, aggregate="sum", config=config, on_overflow=on_overflow,
        )

    def test_raise_policy_raises(self):
        with pytest.raises(PartitionOverflowError):
            execute_plan(self._skewed_plan("raise"), fused=True)

    def test_hist_policy_demotes_effective_mode(self):
        result = execute_plan(self._skewed_plan("hist"), fused=True)
        assert result.fused
        build = result.inputs[0]
        assert build.requested_config.output_mode is OutputMode.PAD
        assert build.config.output_mode is OutputMode.HIST
        staged = execute_plan(self._skewed_plan("hist"), fused=False)
        _assert_same_result(result, staged, "sum")

    def test_cpu_policy_flags_fallback(self):
        result = execute_plan(self._skewed_plan("cpu"), fused=True)
        assert result.inputs[0].fell_back_to_cpu


# ---------------------------------------------------------------------------
# The fused join+aggregate: native crossings, range split, exactness
# ---------------------------------------------------------------------------

def _skewed_join(aggregate="sum"):
    """R linear 2^14 x S Zipf-1.05 2^15: the hottest of 512 partitions
    holds ~12% of S."""
    r = make_relation(1 << 14, "linear")
    s = make_relation(1 << 15, "zipf", seed=3, zipf_factor=1.05)
    return join_groupby_query(
        r, s, aggregate=aggregate,
        config=PartitionerConfig(num_partitions=512),
    )


@needs_native
class TestNativeCrossings:
    def test_serial_query_crosses_six_times(self, native_calls):
        """A serial 512-way join+aggregate: two histograms, two
        scatters, one join_aggregate, one sort — not two kernel calls
        per partition."""
        result = execute_plan(_skewed_join(), fused=True)
        assert result.matches > 0
        assert sum(native_calls.values()) <= 6, dict(native_calls)
        assert native_calls["join_aggregate"] == 1
        assert native_calls["sort_groups"] == 1

    def test_two_workers_one_call_each(self, native_calls):
        with ExecutionEngine(workers=2, kind="thread") as engine:
            execute_plan(_skewed_join(), engine=engine, fused=True)
        assert native_calls["join_aggregate"] <= 2
        assert native_calls["sort_groups"] == 1
        assert native_calls["bucket_build"] == native_calls["bucket_probe"] == 0


@settings(max_examples=80, deadline=None)
@given(
    costs=st.lists(st.integers(0, 1_000), min_size=1, max_size=600),
    ways=st.integers(1, 9),
)
def test_split_ranges_contiguous_cover_and_balanced(costs, ways):
    from repro.plan.executor import _split_ranges

    ranges = _split_ranges(np.array(costs, dtype=np.int64), ways)
    assert 1 <= len(ranges) <= ways
    assert ranges[0][0] == 0 and ranges[-1][1] == len(costs)
    for (_, end), (start, _) in zip(ranges, ranges[1:]):
        assert end == start  # contiguous: each partition exactly once
    assert all(p0 < p1 for p0, p1 in ranges)
    largest = max(sum(costs[p0:p1]) for p0, p1 in ranges)
    assert largest <= sum(costs) / ways + max(costs)


@pytest.mark.parametrize("aggregate", ["sum", "min", "mean"])
def test_thread_engine_rows_equal_serial_on_a_hot_partition(aggregate):
    plan = _skewed_join(aggregate)
    serial = execute_plan(plan, fused=True)
    s_counts = serial.inputs[1].counts
    assert s_counts.max() > 0.05 * s_counts.sum()
    with ExecutionEngine(workers=2, kind="thread") as engine:
        threaded = execute_plan(plan, engine=engine, fused=True)
    assert threaded.matches == serial.matches
    for attr in ("group_keys", "group_values"):
        ours, reference = getattr(threaded, attr), getattr(serial, attr)
        assert ours.dtype == reference.dtype
        assert np.array_equal(ours, reference), attr


@pytest.mark.parametrize(
    "backend", [pytest.param("native", marks=needs_native), "numpy"]
)
def test_sums_past_2_53_exact_fused_and_staged(backend):
    """One build key matched 2^21 + 2^20 times by payloads near 2^32:
    the sum passes 2^53, where float64 accumulation would round."""
    matches = (1 << 21) + (1 << 20)
    # 0xFFFFFFFF is the reserved dummy payload
    payloads = (2**32 - 2) - np.random.default_rng(53).integers(
        0, 1_000, size=matches, dtype=np.uint32
    )
    r = Relation(
        keys=np.array([7], dtype=np.uint32),
        payloads=np.zeros(1, dtype=np.uint32),
    )
    s = Relation(keys=np.full(matches, 7, dtype=np.uint32), payloads=payloads)
    exact = int(payloads.astype(np.int64).sum())
    assert exact > 2**53
    config = PartitionerConfig(num_partitions=16)
    with kernels.using_backend(backend):
        for aggregate, want in (
            ("sum", exact), ("mean", np.int64(exact) / np.int64(matches))
        ):
            plan = join_groupby_query(r, s, aggregate=aggregate, config=config)
            fused = execute_plan(plan, fused=True)
            staged = execute_plan(plan, fused=False)
            _assert_same_result(fused, staged, aggregate)
            assert fused.group_keys.tolist() == [7]
            assert fused.group_values.tolist() == [want]


# ---------------------------------------------------------------------------
# Operator wiring: joins, group-by, service
# ---------------------------------------------------------------------------


class TestOperatorWiring:
    @pytest.mark.parametrize("engine_kind", [None, "thread"])
    @pytest.mark.parametrize(
        "entry,on_overflow",
        [
            ("hybrid_join", "hist"),
            ("hybrid_join", "cpu"),
            ("cpu_radix_join", "hist"),
            ("partitioned_groupby", "hist"),
        ],
    )
    def test_entry_points_equal_staged_plan(
        self, entry, on_overflow, engine_kind
    ):
        """The library entry points run the fused plan; their rows
        equal the staged plan's (a skewed S overflows PAD, so the
        hist/cpu fallbacks are exercised)."""
        from repro.join import cpu_radix_join, hybrid_join

        wl = make_workload("A", scale=4096, seed=2, skew_s_zipf=1.0)
        engine = (
            ExecutionEngine(workers=2, kind="thread")
            if engine_kind == "thread"
            else None
        )
        try:
            if entry == "partitioned_groupby":
                config = PartitionerConfig(num_partitions=32)
                got = partitioned_groupby(
                    wl.s, aggregate="mean", config=config, engine=engine
                )
                rows = (got.keys, got.values)
                plan = groupby_query(wl.s, aggregate="mean", config=config)
                attrs = ("group_keys", "group_values")
            else:
                if entry == "hybrid_join":
                    config = PartitionerConfig(
                        num_partitions=64, output_mode=OutputMode.PAD
                    )
                    got = hybrid_join(
                        wl, config=config, collect_payloads=True,
                        on_overflow=on_overflow, engine=engine,
                    )
                    assert got.fell_back_to_cpu == (on_overflow == "cpu")
                else:
                    config = PartitionerConfig(
                        num_partitions=64, hash_kind=HashKind.RADIX
                    )
                    got = cpu_radix_join(
                        wl, num_partitions=64, collect_payloads=True,
                        engine=engine,
                    )
                rows = (got.matches, got.r_payloads, got.s_payloads)
                plan = join_query(
                    wl.r, wl.s, config=config, on_overflow=on_overflow,
                    collect_payloads=True,
                )
                attrs = ("matches", "r_payloads", "s_payloads")
            staged = execute_plan(plan, engine=engine, fused=False)
        finally:
            if engine is not None:
                engine.close()
        for attr, row in zip(attrs, rows):
            assert np.array_equal(row, getattr(staged, attr)), attr

    def test_service_executes_plans(self):
        from repro.service.service import (
            PartitionService,
            PlanRequest,
            RequestStatus,
        )
        from repro.workloads.relations import make_workload

        wl = make_workload("A", scale=4096, seed=6)
        service = PartitionService()
        service.start()
        try:
            plan = join_groupby_query(wl.r, wl.s, aggregate="sum")
            fused_resp = service.submit_plan(plan).result(timeout=30)
            staged_resp = service.submit_plan(
                PlanRequest(plan=plan, fused=False)
            ).result(timeout=30)
        finally:
            service.stop()
        assert fused_resp.status is RequestStatus.OK
        assert fused_resp.backend == "fused"
        assert staged_resp.backend == "staged"
        assert np.array_equal(
            fused_resp.result.group_keys, staged_resp.result.group_keys
        )
        assert np.array_equal(
            fused_resp.result.group_values,
            staged_resp.result.group_values,
        )
        counters = service.metrics.snapshot()["counters"]
        assert counters["plans_submitted"] == 2
        assert counters["plans_fused"] == 1
        assert counters["plans_staged"] == 1


# ---------------------------------------------------------------------------
# Observability: per-operator spans inside the fused pass
# ---------------------------------------------------------------------------


class TestOperatorSpans:
    def test_fused_pass_emits_operator_spans(self):
        tracer = Tracer()
        plan = join_groupby_query(
            _relation(2_000, 30), _relation(2_000, 31),
            aggregate="sum", config=PartitionerConfig(num_partitions=16),
        )
        result = execute_plan(plan, tracer=tracer, fused=True)
        assert set(result.operator_stats) >= {
            "partition.histogram",
            "partition.scatter",
            "join.build_probe",
            "aggregate.reduce",
        }
        for stats in result.operator_stats.values():
            assert stats["calls"] > 0
            assert stats["busy_s"] >= 0.0
        names = {span.name for span in tracer.export()}
        assert "plan.execute" in names
        assert "op.join.build_probe" in names
        assert "op.aggregate.reduce" in names


class TestPlanValidation:
    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ConfigurationError, match="aggregate"):
            groupby_query(_keys(10, 40), aggregate="median")

    def test_values_only_for_groupby_plans(self):
        import dataclasses

        plan = join_query(_relation(10, 41), _relation(10, 42))
        with pytest.raises(ConfigurationError, match="values"):
            dataclasses.replace(
                plan, values=np.ones(10, dtype=np.uint32)
            )

    def test_relation_source_uses_payloads_as_values(self):
        rel = _relation(500, 43)
        plan = groupby_query(rel, aggregate="sum")
        result = execute_plan(plan, fused=True)
        assert_matches_reference_groupby(
            result.group_keys, result.group_values,
            rel.keys, rel.payloads, "sum",
        )
