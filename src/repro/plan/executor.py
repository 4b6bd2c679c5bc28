"""Plan execution: one per-partition driver per operator, fused or staged.

Every join and group-by in the library runs here: the entry points
(:func:`~repro.join.hybrid_join.hybrid_join`,
:func:`~repro.join.radix_join.cpu_radix_join`,
:func:`~repro.join.hybrid_join.hybrid_join_spilled`,
:func:`~repro.ops.groupby.partitioned_groupby`) build a logical plan
and call :func:`execute_plan`.  There is one per-partition driver for
joins and one for group-by; each runs over any source whose
``partition(p)`` returns that partition's ``(keys, payloads)``, and
fans the partitions out over :meth:`ExecutionEngine.map_tasks
<repro.exec.engine.ExecutionEngine.map_tasks>`.  ``fused`` decides
only two things:

1. **where partitions come from.**  Fused, an in-memory input runs
   histogram → overflow check → scatter through
   :meth:`ExecutionEngine.begin_partition
   <repro.exec.engine.ExecutionEngine.begin_partition>` (or the kernels
   directly without an engine) and the scattered columns are wrapped in
   a lazy boundary view (:class:`_FusedColumns`) — no
   :class:`~repro.core.partitioner.PartitionedOutput` is ever
   assembled.  Staged, the input goes through the
   :class:`~repro.core.partitioner.FpgaPartitioner` into a full
   ``PartitionedOutput``.  A spilled input is read out of its run files
   partition by partition (fused) or adapted whole with ``to_output()``
   (staged).
2. **where join+aggregate groups.**  Fused, each partition's matches
   aggregate on the spot over the build index
   (:func:`_fused_partition_agg`).  Staged, the match columns are
   concatenated and re-partitioned through the group-by driver — the
   extra pass the fused path avoids, kept as the identity oracle the
   property tests and benchmarks compare against.

Results merge in partition order, which is what makes the two
**row-identical**: every key lives in exactly one partition, stable
scatter preserves within-partition order, partition contents are
mode- and backend-independent (pinned repo-wide), and the final stable
sort runs over *distinct* group keys.

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
    optimizer=None,
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
            optimizer=optimizer,
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

def _map_partitions(engine, task, num_partitions: int) -> list:
    """``task(p)`` for every partition, in partition order."""
    partitions = range(num_partitions)
    if engine is None:
        return [task(p) for p in partitions]
    return engine.map_tasks(task, partitions)


def _concat(parts: List[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.empty(0, np.uint32)


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
    pipeline cannot do this: by the time its group-by runs, the matches
    are a flat key/value stream and the build index is gone.
    Exactness: integer values accumulate exactly in the float64
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


def _join(plan, sources, engine, ops, result: QueryResult) -> None:
    """Per-partition build+probe; an aggregate groups each partition's
    matches on the spot (fused) or regroups the concatenated match
    columns through :func:`_groupby` afterwards (staged)."""
    r_in, s_in = sources
    agg = plan.aggregate
    collect = plan.join.collect_payloads
    fused = result.fused

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
        if agg is None:
            return count, pairs, None
        if agg.value_side == "s":
            match_values = s_pays[probe_idx]
        else:
            match_values = r_pays[build_idx]
        if not fused:
            return count, pairs, (np.asarray(s_keys)[probe_idx], match_values)
        with ops.time("aggregate.reduce"):
            return count, pairs, _fused_partition_agg(
                agg.aggregate,
                np.asarray(table.keys),
                build_idx,
                np.asarray(s_keys),
                probe_idx,
                match_values,
            )

    outcomes = [
        out
        for out in _map_partitions(engine, _one, result.num_partitions)
        if out is not None
    ]
    result.matches = sum(count for count, _, _ in outcomes)
    if collect:
        result.r_payloads = _concat([pairs[0] for _, pairs, _ in outcomes])
        result.s_payloads = _concat([pairs[1] for _, pairs, _ in outcomes])
    if agg is None:
        return
    groups = [grouped for _, _, grouped in outcomes]
    if fused or not groups:
        _merge_groups(
            [keys for keys, _ in groups],
            [vals for _, vals in groups],
            agg.aggregate,
            result,
        )
        return
    # the staged intermediate: the full concatenated match columns,
    # partitioned <key, row-id> again for the group-by
    match_keys = np.concatenate([keys for keys, _ in groups])
    match_values = np.concatenate([vals for _, vals in groups])
    regroup = FpgaPartitioner(
        PartitionerConfig(num_partitions=result.num_partitions),
        engine=engine,
    ).partition(match_keys)
    _groupby(regroup, match_values, agg.aggregate, engine, ops, result)


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
        for out in _map_partitions(engine, _one, result.num_partitions)
        if out is not None
    ]
    _merge_groups(
        [keys for keys, _ in outcomes],
        [vals for _, vals in outcomes],
        aggregate,
        result,
    )


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
