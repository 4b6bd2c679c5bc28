"""Plan execution: one fused morsel-driven pass, or the staged fallback.

The fused executor is the point of the plan layer: as soon as an
input's partitions are scattered, the downstream build/probe and
reduceat aggregation run **per partition, immediately, on the same
worker pool** — intermediates are never assembled into a full
:class:`~repro.core.partitioner.PartitionedOutput`.  Concretely:

* in-memory inputs run histogram → overflow check → scatter through
  :meth:`ExecutionEngine.begin_partition
  <repro.exec.engine.ExecutionEngine.begin_partition>` (or the kernels
  directly without an engine); the scattered columns are wrapped in a
  lazy boundary view (:class:`_FusedColumns`) whose per-partition
  slices feed the next operator directly;
* spilled inputs skip partitioning entirely — each partition is
  read out of the run files on demand, so the chain streams the spill
  partition-by-partition without ever loading it whole;
* the per-partition tasks (build+probe, then group-starts + reduceat)
  fan out over :meth:`ExecutionEngine.map_tasks`, and their results
  merge in partition order — which is what makes the fused output
  **row-identical** to the staged operators: every key lives in
  exactly one partition, stable scatter preserves within-partition
  order, and the final stable sort runs over *distinct* group keys.

PAD overflow inside the fused pass keeps the staged policies, settled by
the shared :meth:`Accounting.finalize
<repro.core.pieces.Accounting.finalize>`: partition *contents* are
mode- and backend-independent (pinned repo-wide), so the ``hist``/``cpu``
fallbacks proceed with the already-computed scatter and only the
effective mode label (for cost-model timing) changes; ``raise`` aborts
before the scatter exactly like the hardware.

The staged path (``fused=False``, or a :class:`FusionDeclined` plan)
runs the same chain through the classic materializing operators —
full ``PartitionedOutput`` per input, concatenated match columns, a
fresh partitioning pass for the group-by — and is the identity oracle
the property tests and benchmarks compare against.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.modes import PartitionerConfig
from repro.core.partitioner import FpgaPartitioner, PartitionedOutput
from repro.core.pieces import Accounting, extract_columns
from repro.errors import ConfigurationError
from repro.join.hash_table import BucketChainingHashTable
from repro.obs.tracing import operator_times, resolve_tracer
from repro.ops.groupby import _aggregate_runs, _group_starts
from repro.plan.compiler import CompiledSchedule, FusionDeclined, compile_plan
from repro.plan.nodes import LogicalPlan

__all__ = ["InputSummary", "QueryResult", "execute_plan"]


@dataclasses.dataclass
class InputSummary:
    """Per-input partitioning summary (duck-compatible with the
    ``PartitionedOutput`` fields the join timing models read)."""

    name: str
    tuples: int
    counts: np.ndarray
    config: PartitionerConfig
    requested_config: PartitionerConfig
    fell_back_to_cpu: bool = False
    spilled: bool = False

    def max_partition_tuples(self) -> int:
        """Largest partition size (the PAD overflow-check quantity)."""
        return int(self.counts.max()) if self.counts.size else 0


@dataclasses.dataclass
class QueryResult:
    """What a plan produced (fused or staged — identical rows).

    ``declined`` records why a ``fused=True`` request fell back to
    staged execution; ``operator_stats`` holds the fused pass's
    per-operator call/busy-time accumulation.
    """

    num_partitions: int
    fused: bool
    inputs: List[InputSummary]
    matches: Optional[int] = None
    r_payloads: Optional[np.ndarray] = None
    s_payloads: Optional[np.ndarray] = None
    group_keys: Optional[np.ndarray] = None
    group_values: Optional[np.ndarray] = None
    aggregate: Optional[str] = None
    outputs: Optional[List[PartitionedOutput]] = None
    declined: Optional[str] = None
    operator_stats: Dict[str, dict] = dataclasses.field(default_factory=dict)

    @property
    def num_groups(self) -> int:
        return 0 if self.group_keys is None else int(self.group_keys.shape[0])


class _FusedColumns:
    """Lazy per-partition views over freshly scattered columns.

    The fused substitute for a ``PartitionedOutput``: holds only the
    two sorted columns and the boundary prefix sum; each
    ``partition(p)`` call builds two views.  Nothing else — no line
    accounting, no slices list, no traffic counters.
    """

    __slots__ = ("keys", "payloads", "boundaries")

    def __init__(self, keys, payloads, boundaries):
        self.keys = keys
        self.payloads = payloads
        self.boundaries = boundaries

    def partition(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        lo, hi = self.boundaries[p], self.boundaries[p + 1]
        return self.keys[lo:hi], self.payloads[lo:hi]


class _SpillColumns:
    """Adapter giving a spill handle the ``_FusedColumns`` surface."""

    __slots__ = ("spill",)

    def __init__(self, spill):
        self.spill = spill

    def partition(self, p: int) -> Tuple[np.ndarray, np.ndarray]:
        return self.spill.partition(p)


def execute_plan(
    plan: LogicalPlan,
    engine=None,
    threads: Optional[int] = None,
    fused: bool = True,
    tracer=None,
    optimizer=None,
    platform=None,
) -> QueryResult:
    """Compile and run a plan.

    ``fused=True`` (default) runs the one-pass schedule and falls back
    to staged execution — recording the reason — when the compiler
    declines fusion; ``fused=False`` forces the staged operators (the
    identity baseline).
    """
    tracer = resolve_tracer(tracer)
    declined = None
    try:
        schedule = compile_plan(
            plan,
            engine=engine,
            threads=threads,
            tracer=tracer,
            optimizer=optimizer,
            platform=platform,
        )
    except FusionDeclined as fell:
        declined = fell.reason
        schedule = _staged_schedule(plan, engine, threads, tracer, optimizer)
    if fused and declined is None:
        return _execute_fused(schedule)
    result = _execute_staged(schedule, platform=platform)
    result.declined = declined if fused else None
    return result


def _staged_schedule(plan, engine, threads, tracer, optimizer):
    """Resolve configs for a declined plan without the fusion rules."""
    from repro.exec.engine import resolve_engine

    configs = []
    for scan, node in zip(plan.scans, plan.partitions):
        if scan.is_spilled:
            configs.append(scan.source.config)
        else:
            configs.append(node.config or PartitionerConfig(
                num_partitions=256
            ))
    policies = {
        node.on_overflow
        for scan, node in zip(plan.scans, plan.partitions)
        if not scan.is_spilled
    }
    return CompiledSchedule(
        plan=plan,
        configs=tuple(configs),
        on_overflow=policies.pop() if policies else "raise",
        engine=resolve_engine(engine, threads, tracer=tracer),
        tracer=resolve_tracer(tracer),
        optimizer=optimizer,
    )


# ----------------------------------------------------------------------
# The fused pass
# ----------------------------------------------------------------------

def _prepare_fused_input(scan, config, on_overflow, engine, ops):
    """Histogram + overflow check + scatter for one in-memory input
    (spilled inputs pass straight through, read partition by partition)."""
    if scan.is_spilled:
        spill = scan.source
        summary = InputSummary(
            name=scan.name,
            tuples=int(spill.num_tuples),
            counts=np.asarray(spill.counts, dtype=np.int64),
            config=spill.config,
            requested_config=spill.requested_config,
            spilled=True,
        )
        return _SpillColumns(spill), summary

    keys, payloads = extract_columns(config, scan.source, scan.payloads)
    n = int(keys.shape[0])

    if engine is not None:
        task = engine.begin_partition(
            keys,
            payloads,
            config.num_partitions,
            config.uses_hash,
            lanes=config.num_lanes,
        )
        try:
            with ops.time("partition.histogram"):
                layout = Accounting(config, task.lane_counts).finalize(
                    on_overflow
                )
            with ops.time("partition.scatter"):
                sorted_keys, sorted_payloads = task.scatter()
        finally:
            task.close()
    else:
        with ops.time("partition.histogram"):
            parts, counts, lane_counts = kernels.hash_histogram(
                keys,
                config.num_partitions,
                config.uses_hash,
                lanes=config.num_lanes,
            )
        layout = Accounting(config, lane_counts).finalize(on_overflow)
        with ops.time("partition.scatter"):
            partition_base = np.zeros(config.num_partitions, dtype=np.int64)
            np.cumsum(counts[:-1], out=partition_base[1:])
            sorted_keys = np.empty(n, dtype=np.uint32)
            sorted_payloads = np.empty(n, dtype=np.uint32)
            kernels.stable_scatter(
                keys, payloads, parts, partition_base,
                config.num_partitions, sorted_keys, sorted_payloads,
            )

    boundaries = np.zeros(config.num_partitions + 1, dtype=np.int64)
    np.cumsum(layout.counts, out=boundaries[1:])
    summary = InputSummary(
        name=scan.name,
        tuples=n,
        counts=layout.counts,
        # the hist fallback demotes the effective config, the cpu
        # fallback only flags it: both keep the scatter above
        config=layout.config,
        requested_config=config,
        fell_back_to_cpu=layout.overflow is not None,
    )
    return _FusedColumns(sorted_keys, sorted_payloads, boundaries), summary


def _execute_fused(schedule: CompiledSchedule) -> QueryResult:
    plan = schedule.plan
    engine = schedule.engine
    tracer = schedule.tracer
    ops = operator_times(tracer)
    num_partitions = schedule.num_partitions

    with tracer.span(
        "plan.execute",
        fused=True,
        chain=plan.describe(),
        partitions=num_partitions,
    ) as root:
        prepared = [
            _prepare_fused_input(
                scan, cfg, schedule.on_overflow, engine, ops
            )
            for scan, cfg in zip(plan.scans, schedule.configs)
        ]
        inputs = [columns for columns, _ in prepared]
        summaries = [summary for _, summary in prepared]

        result = QueryResult(
            num_partitions=num_partitions,
            fused=True,
            inputs=summaries,
        )
        if plan.join is not None:
            _fused_join(plan, inputs, engine, ops, result)
        else:
            _fused_groupby(plan, inputs[0], summaries[0], engine, ops, result)
        ops.emit(tracer, parent=root)
        result.operator_stats = ops.to_dict()
        return result


#: float64 integer sums stay exact below 2^53; past that the bincount
#: fast path could round where the staged reduceat would not.
_EXACT_F64 = 1 << 53


def _fused_partition_agg(
    aggregate: str,
    build_keys: np.ndarray,
    build_idx: np.ndarray,
    probe_keys: np.ndarray,
    probe_idx: np.ndarray,
    match_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Aggregate one partition's matches grouped by key.

    The fused operator still holds the join's internal build index, so
    ``sum``/``count``/``mean`` aggregate per *build tuple* with a
    bincount — no sort of the match stream — and only the matched build
    tuples get sorted for the final per-key grouping.  The staged
    pipeline cannot do this: by the time ``partitioned_groupby`` runs,
    the matches are a flat key/value stream and the build index is
    gone.  Exactness: integer values accumulate exactly in the float64
    bincount while the largest possible group sum stays below 2^53
    (checked), so the results are bit-identical to the staged reduceat;
    outside that envelope — and for ``min``/``max`` — the sort-based
    grouping runs instead.
    """
    fast = aggregate in ("sum", "count", "mean")
    if fast and aggregate != "count":
        if match_values.dtype.kind not in "iu" or (
            match_values.size
            and int(probe_idx.shape[0]) * int(match_values.max())
            >= _EXACT_F64
        ):
            fast = False
    if not fast:
        match_keys = probe_keys[probe_idx]
        uniques, starts = _group_starts(match_keys, match_values)
        return uniques, _aggregate_runs(
            aggregate, starts["values"], starts["bounds"]
        )
    n = int(build_keys.shape[0])
    counts = np.bincount(build_idx, minlength=n)
    if counts.min() > 0:  # every build tuple matched (common FK case)
        keys_c = build_keys
        counts_c = counts
        matched = None
    else:
        matched = counts > 0
        keys_c = build_keys[matched]
        counts_c = counts[matched]
    order = np.argsort(keys_c, kind="stable")
    sorted_keys = keys_c[order]
    boundaries = np.empty(sorted_keys.shape[0], dtype=bool)
    boundaries[0] = True
    boundaries[1:] = sorted_keys[1:] != sorted_keys[:-1]
    starts = np.nonzero(boundaries)[0]
    uniques = sorted_keys[starts]
    count_runs = np.add.reduceat(counts_c[order], starts)
    if aggregate == "count":
        return uniques, count_runs.astype(np.int64)
    sums = np.bincount(build_idx, weights=match_values, minlength=n)
    if matched is not None:
        sums = sums[matched]
    sum_runs = np.add.reduceat(sums[order], starts)
    if aggregate == "sum":
        return uniques, sum_runs.astype(np.int64)
    return uniques, sum_runs / count_runs


def _fused_join(plan, inputs, engine, ops, result: QueryResult) -> None:
    """Per-partition build+probe (+ immediate reduceat aggregation)."""
    r_in, s_in = inputs
    join = plan.join
    agg = plan.aggregate
    collect = join.collect_payloads

    def _one(p: int):
        r_keys, r_pays = r_in.partition(p)
        s_keys, s_pays = s_in.partition(p)
        if r_keys.shape[0] == 0 or s_keys.shape[0] == 0:
            return 0, None, None, None, None
        with ops.time("join.build_probe"):
            table = BucketChainingHashTable(r_keys)
            probe_idx, build_idx, _hops = table.probe(s_keys)
        count = int(probe_idx.shape[0])
        r_pay = s_pay = None
        if collect and count:
            r_pay = np.asarray(r_pays)[build_idx]
            s_pay = np.asarray(s_pays)[probe_idx]
        uniques = values = None
        if agg is not None and count:
            if agg.value_side == "s":
                match_values = np.asarray(s_pays)[probe_idx]
            else:
                match_values = np.asarray(r_pays)[build_idx]
            with ops.time("aggregate.reduce"):
                uniques, values = _fused_partition_agg(
                    agg.aggregate,
                    np.asarray(table.keys),
                    build_idx,
                    np.asarray(s_keys),
                    probe_idx,
                    match_values,
                )
        return count, r_pay, s_pay, uniques, values

    partitions = range(result.num_partitions)
    if engine is not None:
        outcomes = engine.map_tasks(_one, partitions)
    else:
        outcomes = [_one(p) for p in partitions]

    matches = 0
    r_parts: List[np.ndarray] = []
    s_parts: List[np.ndarray] = []
    g_keys: List[np.ndarray] = []
    g_values: List[np.ndarray] = []
    for count, r_pay, s_pay, uniques, values in outcomes:
        matches += count
        if r_pay is not None:
            r_parts.append(r_pay)
            s_parts.append(s_pay)
        if uniques is not None:
            g_keys.append(uniques)
            g_values.append(values)

    result.matches = matches
    if collect:
        result.r_payloads = (
            np.concatenate(r_parts) if r_parts else np.empty(0, np.uint32)
        )
        result.s_payloads = (
            np.concatenate(s_parts) if s_parts else np.empty(0, np.uint32)
        )
    if agg is not None:
        _merge_groups(g_keys, g_values, agg.aggregate, result)


def _fused_groupby(plan, columns, summary, engine, ops, result) -> None:
    """Per-partition group-starts + reduceat straight off the scatter."""
    agg = plan.aggregate
    spilled = summary.spilled
    values = plan.values
    if not spilled and values is None:
        values = np.ones(summary.tuples, dtype=np.uint32)
    if values is not None:
        values = np.asarray(values)
        if values.shape[0] != summary.tuples:
            raise ConfigurationError("values must align with keys")

    def _one(p: int):
        p_keys, p_rows = columns.partition(p)
        if p_keys.shape[0] == 0:
            return None
        # in-memory scans partitioned <key, row-id>: gather the value
        # column; a spilled scan's payloads *are* its values unless an
        # explicit column reinterprets them as row ids
        if values is None:
            p_values = np.asarray(p_rows)
        else:
            p_values = values[np.asarray(p_rows)]
        with ops.time("aggregate.reduce"):
            uniques, starts = _group_starts(np.asarray(p_keys), p_values)
            return uniques, _aggregate_runs(
                agg.aggregate, starts["values"], starts["bounds"]
            )

    partitions = range(result.num_partitions)
    if engine is not None:
        outcomes = engine.map_tasks(_one, partitions)
    else:
        outcomes = [_one(p) for p in partitions]

    g_keys = [u for out in outcomes if out is not None for u in (out[0],)]
    g_values = [v for out in outcomes if out is not None for v in (out[1],)]
    _merge_groups(g_keys, g_values, agg.aggregate, result)


def _merge_groups(g_keys, g_values, aggregate, result: QueryResult) -> None:
    """Concatenate per-partition groups; final stable sort by key.

    No cross-partition merge is needed — a key lives in exactly one
    partition — so the sort runs over *distinct* keys and the
    concatenation order cannot affect the result.
    """
    if g_keys:
        all_keys = np.concatenate(g_keys)
        all_values = np.concatenate(g_values)
    else:
        all_keys = np.empty(0, dtype=np.uint32)
        all_values = np.empty(0)
    order = np.argsort(all_keys, kind="stable")
    result.group_keys = all_keys[order]
    result.group_values = all_values[order]
    result.aggregate = aggregate


# ----------------------------------------------------------------------
# The staged reference path
# ----------------------------------------------------------------------

def _materialize_input(scan, config, on_overflow, engine, platform):
    """Full ``PartitionedOutput`` for one input (the staged way)."""
    if scan.is_spilled:
        output = scan.source.to_output()
        summary = InputSummary(
            name=scan.name,
            tuples=int(scan.source.num_tuples),
            counts=np.asarray(output.counts, dtype=np.int64),
            config=scan.source.config,
            requested_config=scan.source.requested_config,
            spilled=True,
        )
        return output, summary
    keys, payloads = extract_columns(config, scan.source, scan.payloads)
    partitioner = FpgaPartitioner(config, platform=platform, engine=engine)
    output = partitioner.partition(keys, payloads, on_overflow=on_overflow)
    summary = InputSummary(
        name=scan.name,
        tuples=int(keys.shape[0]),
        counts=np.asarray(output.counts, dtype=np.int64),
        config=output.config,
        requested_config=config,
        fell_back_to_cpu=output.fell_back_to_cpu,
    )
    return output, summary


def _execute_staged(
    schedule: CompiledSchedule, platform=None
) -> QueryResult:
    """The materializing pipeline: every stage assembles its output."""
    plan = schedule.plan
    engine = schedule.engine
    tracer = schedule.tracer
    num_partitions = schedule.num_partitions

    with tracer.span(
        "plan.execute",
        fused=False,
        chain=plan.describe(),
        partitions=num_partitions,
    ):
        prepared = [
            _materialize_input(
                scan, cfg, schedule.on_overflow, engine, platform
            )
            for scan, cfg in zip(plan.scans, schedule.configs)
        ]
        outputs = [output for output, _ in prepared]
        summaries = [summary for _, summary in prepared]
        result = QueryResult(
            num_partitions=num_partitions,
            fused=False,
            inputs=summaries,
        )
        if plan.join is not None:
            _staged_join(plan, outputs, engine, result)
        elif plan.aggregate is not None:
            _staged_groupby(plan, outputs[0], summaries[0], engine, result)
        else:
            result.outputs = outputs
        return result


def _staged_join(plan, outputs, engine, result: QueryResult) -> None:
    """Join all partitions, materializing the match columns, then (for
    an aggregate) re-partition the matches through the staged
    group-by — the extra pass the fused path avoids."""
    r_out, s_out = outputs
    agg = plan.aggregate
    collect = plan.join.collect_payloads

    if agg is None:
        from repro.join.radix_join import _join_partitions

        matches, r_pay, s_pay = _join_partitions(
            r_out, s_out, collect, engine=engine
        )
        result.matches = matches
        result.r_payloads = r_pay
        result.s_payloads = s_pay
        return

    def _one(p: int):
        r_keys, r_pays = r_out.partition(p)
        s_keys, s_pays = s_out.partition(p)
        if r_keys.shape[0] == 0 or s_keys.shape[0] == 0:
            return None
        table = BucketChainingHashTable(r_keys)
        probe_idx, build_idx, _hops = table.probe(s_keys)
        if probe_idx.shape[0] == 0:
            return None
        match_keys = np.asarray(s_keys)[probe_idx]
        if agg.value_side == "s":
            match_values = np.asarray(s_pays)[probe_idx]
        else:
            match_values = np.asarray(r_pays)[build_idx]
        r_pay = s_pay = None
        if collect:
            r_pay = np.asarray(r_pays)[build_idx]
            s_pay = np.asarray(s_pays)[probe_idx]
        return match_keys, match_values, r_pay, s_pay

    partitions = range(result.num_partitions)
    if engine is not None:
        outcomes = engine.map_tasks(_one, partitions)
    else:
        outcomes = [_one(p) for p in partitions]
    outcomes = [out for out in outcomes if out is not None]

    # the staged intermediate: the full concatenated match columns
    if outcomes:
        match_keys = np.concatenate([out[0] for out in outcomes])
        match_values = np.concatenate([out[1] for out in outcomes])
    else:
        match_keys = np.empty(0, dtype=np.uint32)
        match_values = np.empty(0, dtype=np.uint32)
    result.matches = int(match_keys.shape[0])
    if collect:
        r_parts = [out[2] for out in outcomes if out[2] is not None]
        s_parts = [out[3] for out in outcomes if out[3] is not None]
        result.r_payloads = (
            np.concatenate(r_parts) if r_parts else np.empty(0, np.uint32)
        )
        result.s_payloads = (
            np.concatenate(s_parts) if s_parts else np.empty(0, np.uint32)
        )

    if match_keys.shape[0] == 0:
        result.group_keys = np.empty(0, dtype=np.uint32)
        result.group_values = np.empty(0)
        result.aggregate = agg.aggregate
        return
    from repro.ops.groupby import partitioned_groupby

    grouped = partitioned_groupby(
        match_keys,
        match_values,
        aggregate=agg.aggregate,
        num_partitions=result.num_partitions,
    )
    result.group_keys = grouped.keys
    result.group_values = grouped.values
    result.aggregate = agg.aggregate


def _staged_groupby(plan, output, summary, engine, result) -> None:
    """Aggregate a fully materialized partitioning, partition by
    partition (the classic ``partitioned_groupby`` loop)."""
    agg = plan.aggregate
    values = plan.values
    if not summary.spilled and values is None:
        values = np.ones(summary.tuples, dtype=np.uint32)
    if values is not None:
        values = np.asarray(values)
        if values.shape[0] != summary.tuples:
            raise ConfigurationError("values must align with keys")

    g_keys: List[np.ndarray] = []
    g_values: List[np.ndarray] = []
    for p in range(result.num_partitions):
        p_keys, p_rows = output.partition(p)
        if p_keys.shape[0] == 0:
            continue
        if values is None:
            p_values = np.asarray(p_rows)
        else:
            p_values = values[np.asarray(p_rows)]
        uniques, starts = _group_starts(np.asarray(p_keys), p_values)
        g_keys.append(uniques)
        g_values.append(
            _aggregate_runs(agg.aggregate, starts["values"], starts["bounds"])
        )
    _merge_groups(g_keys, g_values, agg.aggregate, result)
