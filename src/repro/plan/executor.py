"""Plan execution: one driver per operator, fused or staged.

Every join and group-by in the library runs here: the entry points
(:func:`~repro.join.hybrid_join.hybrid_join`,
:func:`~repro.join.radix_join.cpu_radix_join`,
:func:`~repro.join.hybrid_join.hybrid_join_spilled`,
:func:`~repro.ops.groupby.partitioned_groupby`) build a logical plan
and call :func:`execute_plan`.  The join and group-by drivers run over
any source whose ``partition(p)`` returns that partition's ``(keys,
payloads)`` and fan out over :meth:`ExecutionEngine.map_tasks
<repro.exec.engine.ExecutionEngine.map_tasks>`.  ``fused`` decides
only two things:

1. **where partitions come from.**  Fused, an in-memory input is
   histogrammed, overflow-checked and scattered (through
   :meth:`ExecutionEngine.begin_partition
   <repro.exec.engine.ExecutionEngine.begin_partition>`, or the kernels
   directly without an engine) into a lazy boundary view
   (:class:`_FusedColumns`), and a spilled input is read out of its run
   files partition by partition.  Staged, the
   :class:`~repro.core.partitioner.FpgaPartitioner` (or the spill's
   ``to_output()``) assembles a full
   :class:`~repro.core.partitioner.PartitionedOutput`.
2. **where join+aggregate groups.**  Fused, inside the join: one
   native call per partition range (:func:`_join_aggregate`) aggregates
   per matched build tuple.  Staged, the match columns are
   concatenated and re-partitioned through the group-by driver — the
   extra pass the fused path avoids, kept as the identity oracle the
   property tests and benchmarks compare against.

The two are **row-identical**: every key lives in exactly one
partition, partition contents are mode- and backend-independent
(pinned repo-wide), integer aggregates are exact on both paths, and
one stable sort by key orders (and folds) the final groups.

PAD overflow in the fused scatter keeps the partitioner's policies,
settled by the shared :meth:`Accounting.finalize
<repro.core.pieces.Accounting.finalize>`: the ``hist``/``cpu``
fallbacks proceed with the already-computed scatter and only the
effective mode label (for cost-model timing) changes; ``raise`` aborts
before the scatter exactly like the hardware.
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
from repro.obs.tracing import operator_times
from repro.ops.groupby import _aggregate_runs, _group_starts
from repro.plan.compiler import CompiledSchedule, FusionDeclined, compile_plan
from repro.plan.nodes import LogicalPlan

__all__ = ["InputSummary", "QueryResult", "execute_plan"]


@dataclasses.dataclass
class InputSummary:
    """Per-input partitioning summary: what the join entry points'
    timing models read (counts, effective and requested config,
    fallback flag)."""

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
    staged execution; ``operator_stats`` holds the pass's per-operator
    call/busy-time accumulation.
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


def execute_plan(
    plan: LogicalPlan,
    engine=None,
    threads: Optional[int] = None,
    fused: bool = True,
    tracer=None,
    platform=None,
) -> QueryResult:
    """Compile and run a plan.

    ``fused=True`` (default) runs the one-pass schedule and falls back
    to staged execution — recording the reason — when the compiler
    declines fusion; ``fused=False`` forces the staged operators (the
    identity baseline).  Either way the configs are the ones
    :func:`~repro.plan.compiler.compile_plan` resolved.
    """
    declined = None
    try:
        schedule = compile_plan(
            plan,
            engine=engine,
            threads=threads,
            tracer=tracer,
            platform=platform,
        )
    except FusionDeclined as fell:
        declined = fell.reason
        schedule = fell.schedule
    result = _execute(schedule, fused and declined is None, platform)
    result.declined = declined if fused else None
    return result


def _execute(schedule: CompiledSchedule, fused: bool, platform) -> QueryResult:
    """Run a resolved schedule, fused or staged, under one span."""
    plan = schedule.plan
    engine = schedule.engine
    tracer = schedule.tracer
    ops = operator_times(tracer)

    with tracer.span(
        "plan.execute",
        fused=fused,
        chain=plan.describe(),
        partitions=schedule.num_partitions,
    ) as root:
        prepared = []
        for scan, cfg in zip(plan.scans, schedule.configs):
            if scan.is_spilled:
                prepared.append(_spilled_input(scan, fused))
            elif fused:
                prepared.append(_prepare_fused_input(
                    scan, cfg, schedule.on_overflow, engine, ops
                ))
            else:
                prepared.append(_materialize_input(
                    scan, cfg, schedule.on_overflow, engine, platform
                ))
        sources = [source for source, _ in prepared]
        result = QueryResult(
            num_partitions=schedule.num_partitions,
            fused=fused,
            inputs=[summary for _, summary in prepared],
        )
        if plan.join is not None:
            _join(plan, sources, engine, ops, result)
        elif plan.aggregate is not None:
            values = _value_column(plan.values, result.inputs[0])
            _groupby(
                sources[0], values, plan.aggregate.aggregate, engine, ops,
                result,
            )
        else:
            result.outputs = sources
        ops.emit(tracer, parent=root)
        result.operator_stats = ops.to_dict()
        return result


# ----------------------------------------------------------------------
# Where partitions come from
# ----------------------------------------------------------------------

def _spilled_input(scan, fused: bool):
    """A spilled input: its partitioning already happened on disk."""
    spill = scan.source
    summary = InputSummary(
        name=scan.name,
        tuples=int(spill.num_tuples),
        counts=np.asarray(spill.counts, dtype=np.int64),
        config=spill.config,
        requested_config=spill.requested_config,
        spilled=True,
    )
    return (spill if fused else spill.to_output()), summary


def _prepare_fused_input(scan, config, on_overflow, engine, ops):
    """Histogram + overflow check + scatter for one in-memory input."""
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


def _materialize_input(scan, config, on_overflow, engine, platform):
    """Full ``PartitionedOutput`` for one in-memory input (staged)."""
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


# ----------------------------------------------------------------------
# The per-partition drivers
# ----------------------------------------------------------------------

def _map_partitions(engine, task, items) -> list:
    """``task(item)`` for every partition (or range), in order."""
    if engine is None:
        return [task(item) for item in items]
    return engine.map_tasks(task, items)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, np.uint32)


def _split_ranges(costs: np.ndarray, ways: int) -> List[Tuple[int, int]]:
    """≤ ``ways`` contiguous partition ranges covering every partition
    once: range ``k`` ends where the running cost first reaches ``(k +
    1) / ways`` of the total, so none costs more than ``total / ways``
    plus its largest partition."""
    prefix = np.zeros(len(costs) + 1, dtype=np.int64)
    np.cumsum(costs, out=prefix[1:])
    cuts = np.searchsorted(
        prefix * ways, np.arange(1, ways, dtype=np.int64) * prefix[-1]
    )
    bounds = [0, *cuts.tolist(), len(costs)]
    return [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]


def _one_partition(source, p: int):
    """Partition ``p`` as a one-partition range: columns + bounds."""
    keys, payloads = (np.asarray(column) for column in source.partition(p))
    return keys, payloads, np.array([0, keys.shape[0]], dtype=np.int64)


def _join(plan, sources, engine, ops, result: QueryResult) -> None:
    """Per-partition build+probe for join-only plans, payload pairs and
    the staged oracle, which regroups the concatenated match columns
    through :func:`_groupby`; a fused aggregate runs
    :func:`_join_aggregate` instead."""
    r_in, s_in = sources
    agg = plan.aggregate
    collect = plan.join.collect_payloads
    if agg is not None and result.fused:
        _join_aggregate(sources, agg, engine, ops, result)
        if not collect:
            return
    regroup = agg is not None and not result.fused

    def _one(p: int):
        r_keys, r_pays = r_in.partition(p)
        s_keys, s_pays = s_in.partition(p)
        if r_keys.shape[0] == 0 or s_keys.shape[0] == 0:
            return None
        with ops.time("join.build_probe"):
            table = BucketChainingHashTable(r_keys)
            probe_idx, build_idx, _hops = table.probe(s_keys)
        count = int(probe_idx.shape[0])
        if count == 0:
            return None
        r_pays, s_pays = np.asarray(r_pays), np.asarray(s_pays)
        pairs = (r_pays[build_idx], s_pays[probe_idx]) if collect else None
        if not regroup:
            return count, pairs, None
        if agg.value_side == "s":
            match_values = s_pays[probe_idx]
        else:
            match_values = r_pays[build_idx]
        return count, pairs, (np.asarray(s_keys)[probe_idx], match_values)

    outcomes = [
        out
        for out in _map_partitions(engine, _one, range(result.num_partitions))
        if out is not None
    ]
    result.matches = sum(count for count, _, _ in outcomes)
    if collect:
        result.r_payloads = _concat([pairs[0] for _, pairs, _ in outcomes])
        result.s_payloads = _concat([pairs[1] for _, pairs, _ in outcomes])
    if not regroup:
        return
    if not outcomes:
        _merge_groups(_concat([]), np.empty(0), agg.aggregate, ops, result)
        return
    # the staged intermediate: the full concatenated match columns,
    # partitioned <key, row-id> again for the group-by
    match_keys = np.concatenate([grouped[0] for _, _, grouped in outcomes])
    match_values = np.concatenate([grouped[1] for _, _, grouped in outcomes])
    regrouped = FpgaPartitioner(
        PartitionerConfig(num_partitions=result.num_partitions),
        engine=engine,
    ).partition(match_keys)
    _groupby(regrouped, match_values, agg.aggregate, engine, ops, result)


def _join_aggregate(sources, agg, engine, ops, result: QueryResult) -> None:
    """Fused join+aggregate: one :func:`kernels.join_aggregate
    <repro.kernels.join_aggregate>` call per partition range, then one
    sort folding the rows of duplicate build keys.

    In-memory inputs split into one range per worker, balanced by
    ``|R_p| + |S_p|``; a spilled input is joined one partition at a
    time.  Range ``[p0, p1)`` yields at most one row per build tuple,
    so it writes its own slice ``[rb[p0], rb[p1])`` of one buffer.
    """
    r_counts, s_counts = (summary.counts for summary in result.inputs)
    rb = np.zeros(len(r_counts) + 1, dtype=np.int64)
    np.cumsum(r_counts, out=rb[1:])
    in_memory = all(isinstance(source, _FusedColumns) for source in sources)
    if in_memory:
        ways = 1 if engine is None or engine.kind == "serial" else engine.workers
        ranges = _split_ranges(r_counts + s_counts, ways)
    else:
        ranges = [(p, p + 1) for p in range(result.num_partitions)]
    out = [np.empty(rb[-1], dtype=np.uint32), np.empty(rb[-1], np.int64)]
    if agg.aggregate == "mean":
        out.append(np.empty(rb[-1], dtype=np.int64))

    def _one(span: Tuple[int, int]):
        p0, p1 = span
        lo, hi = rb[p0], rb[p1]
        if in_memory:
            columns = [(c.keys, c.payloads, c.boundaries) for c in sources]
        else:
            columns = [_one_partition(source, p0) for source in sources]
            p0, p1 = 0, 1
        with ops.time("join.build_probe"):
            rows, matches = kernels.join_aggregate(
                *columns[0], *columns[1], p0, p1, agg.aggregate,
                agg.value_side, *(column[lo:hi] for column in out),
            )
        return slice(lo, lo + rows), matches

    pieces = _map_partitions(engine, _one, ranges)
    result.matches = sum(matches for _, matches in pieces)
    rows = 0
    for span, _ in pieces:  # close the gaps between the ranges' rows
        if span.start != rows:
            for column in out:
                column[rows:rows + span.stop - span.start] = column[span]
        rows += span.stop - span.start
    for column in out:  # shrink in place, no copy: the rows are the result
        column.resize(rows, refcheck=False)
    _merge_groups(*out[:2], agg.aggregate, ops, result, *out[2:])
    if agg.aggregate in ("min", "max"):
        # a min or max is one of the (uint32) payloads, as staged
        result.group_values = result.group_values.astype(np.uint32)


def _value_column(values, summary: InputSummary) -> Optional[np.ndarray]:
    """A group-by plan's value column, gathered per partition by row id.

    In-memory scans partition ``<key, row-id>``: an explicit column is
    gathered, and without one every row counts one.  A spilled scan's
    payloads *are* its values (``None``) unless an explicit column
    reinterprets them as row ids.
    """
    if values is None:
        if summary.spilled:
            return None
        return np.ones(summary.tuples, dtype=np.uint32)
    values = np.asarray(values)
    if values.shape[0] != summary.tuples:
        raise ConfigurationError("values must align with keys")
    return values


def _groupby(source, values, aggregate, engine, ops, result) -> None:
    """Per-partition group-starts + reduceat.

    ``values`` is gathered by each partition's payloads (row ids), or
    is ``None`` when the payloads are the values themselves.
    """

    def _one(p: int):
        p_keys, p_rows = source.partition(p)
        if p_keys.shape[0] == 0:
            return None
        if values is None:
            p_values = np.asarray(p_rows)
        else:
            p_values = values[np.asarray(p_rows)]
        with ops.time("aggregate.reduce"):
            uniques, starts = _group_starts(np.asarray(p_keys), p_values)
            return uniques, _aggregate_runs(
                aggregate, starts["values"], starts["bounds"]
            )

    outcomes = [
        out
        for out in _map_partitions(engine, _one, range(result.num_partitions))
        if out is not None
    ]
    _merge_groups(
        _concat([keys for keys, _ in outcomes]),
        np.concatenate([vals for _, vals in outcomes]) if outcomes
        else np.empty(0),
        aggregate,
        ops,
        result,
    )


def _merge_groups(keys, values, aggregate, ops, result, counts=None):
    """One in-place :func:`kernels.sort_groups <repro.kernels.sort_groups>`
    by key; only the fused join's rows (one per matched build tuple) can
    repeat a key and fold.  Fused ``mean`` rows carry sums + ``counts``."""
    with ops.time("aggregate.reduce"):
        groups = kernels.sort_groups(keys, values, aggregate, counts)
    result.group_keys = keys[:groups]
    values = values[:groups]
    result.group_values = values if counts is None else values / counts[:groups]
    result.aggregate = aggregate
