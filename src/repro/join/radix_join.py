"""The CPU radix hash join (Section 3.3).

Partition R and S so every partition pair fits in cache, then
build+probe each pair.  Functional results come from running the join
plan (:mod:`repro.plan`); wall-clock comes from the calibrated cost
models of the software partitioner and build+probe (the Python data
plane is not the thing being timed — the paper's platform is).
"""

from __future__ import annotations

from typing import Optional

from repro.core.modes import HashKind, PartitionerConfig
from repro.cpu.cost_model import CpuCostModel
from repro.errors import ConfigurationError
from repro.join.build_probe import BuildProbeCostModel, shares_if_dense
from repro.join.timing import JoinResult, JoinTiming
from repro.workloads.relations import Workload


def cpu_radix_join(
    workload: Workload,
    num_partitions: int = 8192,
    threads: int = 1,
    hash_kind: HashKind | str = HashKind.RADIX,
    collect_payloads: bool = False,
    cpu_cost_model: Optional[CpuCostModel] = None,
    bp_cost_model: Optional[BuildProbeCostModel] = None,
    timing_r_tuples: Optional[int] = None,
    timing_s_tuples: Optional[int] = None,
    engine=None,
) -> JoinResult:
    """Execute and time a CPU-only partitioned hash join.

    Returns a :class:`JoinResult` whose ``matches`` (and optional
    payload pairs) come from actually joining the data, and whose
    ``timing`` comes from the Figure 4 / build+probe cost models for
    the given thread count.

    ``timing_r_tuples`` / ``timing_s_tuples`` let the timing be
    evaluated at different (typically the paper's full-scale) relation
    sizes than the data actually joined — the functional result stays
    scaled, the modelled seconds become paper-comparable.

    ``engine`` (spec or :class:`~repro.exec.engine.ExecutionEngine`)
    runs the partitioning and the per-partition build+probe on a worker
    pool; the functional result is unchanged.  The join runs as a plan
    (:func:`repro.plan.execute_plan`): partition contents are
    backend-invariant (pinned by the kernel tests), so the rows are the
    software partitioner's.
    """
    r, s = workload.r, workload.s
    if r.tuple_bytes != s.tuple_bytes:
        raise ConfigurationError("R and S must share a tuple width")
    hash_kind = HashKind(hash_kind)
    n_r = timing_r_tuples if timing_r_tuples is not None else len(r)
    n_s = timing_s_tuples if timing_s_tuples is not None else len(s)

    from repro.plan import execute_plan, join_query

    config = PartitionerConfig(
        num_partitions=num_partitions,
        hash_kind=hash_kind,
        tuple_bytes=r.tuple_bytes,
    )
    result = execute_plan(
        join_query(r, s, config=config, collect_payloads=collect_payloads),
        engine=engine,
        threads=threads,
    )

    cpu_cost_model = cpu_cost_model or CpuCostModel()
    partition_seconds = cpu_cost_model.partitioning_seconds(
        n_r + n_s,
        threads,
        hash_kind=hash_kind,
        distribution=workload.distribution,
        num_partitions=num_partitions,
        tuple_bytes=r.tuple_bytes,
    )
    timing = JoinTiming(
        partition_seconds=partition_seconds,
        build_probe_seconds=_build_probe_seconds(
            bp_cost_model, result, (n_r, n_s), threads,
            fpga_partitioned=False,
        ),
        r_tuples=n_r,
        s_tuples=n_s,
        threads=threads,
        partitioner=f"cpu/{hash_kind.value}",
        num_partitions=num_partitions,
    )
    return JoinResult(
        matches=result.matches,
        r_payloads=result.r_payloads,
        s_payloads=result.s_payloads,
        timing=timing,
    )


def _build_probe_seconds(
    bp_cost_model: Optional[BuildProbeCostModel],
    result,
    timing_tuples,
    threads: int,
    fpga_partitioned: bool,
) -> float:
    """Modelled build+probe seconds of an executed join plan.

    ``result`` is the :class:`~repro.plan.executor.QueryResult`; its
    input summaries give the partition geometry, ``timing_tuples`` the
    ``(|R|, |S|)`` the model is evaluated at.  The slowest thread is
    pinned by the heaviest partition on either side — a skewed probe
    relation (Figure 13) throttles build+probe even when the build side
    is balanced.
    """
    r_in, s_in = result.inputs
    n_r, n_s = timing_tuples
    bp = (bp_cost_model or BuildProbeCostModel()).estimate(
        r_tuples=n_r,
        s_tuples=n_s,
        num_partitions=result.num_partitions,
        threads=threads,
        tuple_bytes=r_in.requested_config.tuple_bytes,
        fpga_partitioned=fpga_partitioned,
        max_partition_share=max(
            r_in.max_partition_tuples() / max(1, r_in.tuples),
            s_in.max_partition_tuples() / max(1, s_in.tuples),
        ),
        r_shares=shares_if_dense(r_in.counts, r_in.tuples),
        s_shares=shares_if_dense(s_in.counts, s_in.tuples),
    )
    return bp.total_seconds
