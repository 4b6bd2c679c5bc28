"""The hybrid join: FPGA partitioning + CPU build+probe (Section 5).

The headline experiment of the paper.  The FPGA partitions both
relations (any of its four modes); the CPU then builds and probes the
cache-resident hash tables — paying the coherence penalty for touching
FPGA-written memory (Section 2.2).  When a PAD-mode run overflows on a
skewed relation, the join transparently retries in HIST mode or falls
back to the CPU partitioner, per the chosen policy (Section 5.4).

Relations too large to partition in memory can come in pre-partitioned
on disk: :func:`hybrid_join_spilled` runs the same join plan over two
:class:`~repro.storage.spill.PartitionSpill` handles, reading one
partition pair at a time — the out-of-core completion of the same join.
"""

from __future__ import annotations

from typing import Optional

from repro.core.model import FpgaCostModel
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import OverflowPolicy
from repro.errors import ConfigurationError
from repro.join.build_probe import BuildProbeCostModel
from repro.join.radix_join import _build_probe_seconds
from repro.join.timing import JoinResult, JoinTiming
from repro.platform.machine import XeonFpgaPlatform
from repro.workloads.relations import Workload


def _partition_timing(
    inputs,
    fpga_cost_model: FpgaCostModel,
    threads: int,
    calibrated: bool,
):
    """Partitioning seconds + effective mode labels for a join's inputs.

    ``inputs`` is ``(summary, n_timing)`` pairs, one per relation, where
    ``summary`` is the :class:`~repro.plan.executor.InputSummary` of an
    in-memory or spilled input.  Each relation is timed by the mode that
    actually ran for it — overflow may have forced one (usually the
    skewed S) into HIST or onto the CPU, with the aborted pass of its
    ``requested_config`` still charged (worst case of Section 5.4:
    detection at the very end of the run).
    """
    partition_seconds = 0.0
    effective_labels = []
    for summary, n_timing in inputs:
        requested = summary.requested_config
        if summary.fell_back_to_cpu:
            from repro.cpu.cost_model import CpuCostModel

            cpu_seconds = CpuCostModel().partitioning_seconds(
                n_timing,
                threads,
                hash_kind=requested.hash_kind,
                num_partitions=requested.num_partitions,
                tuple_bytes=requested.tuple_bytes,
            )
            aborted = fpga_cost_model.partitioning_seconds(
                n_timing, requested, calibrated=calibrated
            )
            partition_seconds += cpu_seconds + aborted
            effective_labels.append("cpu-fallback")
            continue
        partition_seconds += fpga_cost_model.partitioning_seconds(
            n_timing, summary.config, calibrated=calibrated
        )
        if (
            requested.output_mode is OutputMode.PAD
            and summary.config.output_mode is OutputMode.HIST
        ):
            partition_seconds += fpga_cost_model.partitioning_seconds(
                n_timing, requested, calibrated=calibrated
            )
            effective_labels.append(summary.config.mode_label + "(retry)")
        else:
            effective_labels.append(summary.config.mode_label)
    return partition_seconds, effective_labels


def _timed_join(
    result,
    timing_tuples,
    threads: int,
    fpga_cost_model: FpgaCostModel,
    bp_cost_model: Optional[BuildProbeCostModel],
    calibrated: bool,
    source: str,
) -> JoinResult:
    """Time an executed FPGA-partitioned join plan (in memory or spilled)."""
    r_in, s_in = result.inputs
    n_r, n_s = timing_tuples
    partition_seconds, effective_labels = _partition_timing(
        ((r_in, n_r), (s_in, n_s)), fpga_cost_model, threads, calibrated
    )
    fell_back = r_in.fell_back_to_cpu or s_in.fell_back_to_cpu
    timing = JoinTiming(
        partition_seconds=partition_seconds,
        build_probe_seconds=_build_probe_seconds(
            bp_cost_model, result, timing_tuples, threads,
            fpga_partitioned=not fell_back,
        ),
        r_tuples=n_r,
        s_tuples=n_s,
        threads=threads,
        partitioner=(
            "cpu-fallback"
            if fell_back
            else f"{source} {'+'.join(effective_labels)}"
        ),
        num_partitions=result.num_partitions,
    )
    return JoinResult(
        matches=result.matches,
        r_payloads=result.r_payloads,
        s_payloads=result.s_payloads,
        timing=timing,
        fell_back_to_cpu=fell_back,
    )


def hybrid_join(
    workload: Workload,
    config: Optional[PartitionerConfig] = None,
    threads: int = 1,
    collect_payloads: bool = False,
    on_overflow: OverflowPolicy = "hist",
    platform: Optional[XeonFpgaPlatform] = None,
    fpga_cost_model: Optional[FpgaCostModel] = None,
    bp_cost_model: Optional[BuildProbeCostModel] = None,
    calibrated: bool = True,
    timing_r_tuples: Optional[int] = None,
    timing_s_tuples: Optional[int] = None,
    engine=None,
) -> JoinResult:
    """Execute and time a hybrid FPGA/CPU radix hash join.

    The join runs as a plan (:func:`repro.plan.execute_plan`): fused,
    so build+probe starts per partition as soon as the scatter lands;
    staged through the materializing partitioner when a ``platform`` is
    attached (its accounting needs the FPGA-written regions).  The rows
    are identical either way.

    Args:
        workload: the R/S pair.
        config: FPGA partitioner configuration (defaults to the paper's
            comparison mode PAD/RID with murmur hashing at 8192-way).
        threads: CPU threads for build+probe (the FPGA partitioning is
            thread-free; Section 5.1's "10-threaded hybrid join" means
            exactly this).
        collect_payloads: materialise matching payload pairs.
        on_overflow: PAD skew policy — "hist" (default; robust two-pass
            retry), "cpu" (software fallback) or "raise".
        platform: platform for traffic/coherence accounting.
        calibrated: apply the prototype calibration to the FPGA
            partitioning rate (Figure 9 end-to-end numbers) instead of
            the pure Section 4.8 model.
        timing_r_tuples / timing_s_tuples: evaluate the timing models
            at these relation sizes instead of the actual (possibly
            scaled-down) data sizes; the functional join still runs on
            the real data.
        engine: execution-engine spec (``None``, ``"parallel"``,
            ``"serial"``, ``"thread"``, ``"process"`` or an
            :class:`~repro.exec.engine.ExecutionEngine`); parallelises
            the partitioning and the per-partition build+probe without
            changing the functional result.

    Returns:
        A :class:`JoinResult`; ``timing.partitioner`` records the FPGA
        mode actually used (after any fallback).
    """
    if config is None:
        config = PartitionerConfig(
            output_mode=OutputMode.PAD, layout_mode=LayoutMode.RID
        )
    r, s = workload.r, workload.s
    if r.tuple_bytes != config.tuple_bytes:
        raise ConfigurationError(
            f"workload tuples are {r.tuple_bytes} B but the partitioner "
            f"is configured for {config.tuple_bytes} B"
        )

    from repro.plan import execute_plan, join_query

    result = execute_plan(
        join_query(
            r,
            s,
            config=config,
            on_overflow=on_overflow,
            collect_payloads=collect_payloads,
        ),
        engine=engine,
        threads=threads,
        platform=platform,
    )
    return _timed_join(
        result,
        (
            timing_r_tuples if timing_r_tuples is not None else len(r),
            timing_s_tuples if timing_s_tuples is not None else len(s),
        ),
        threads,
        fpga_cost_model or FpgaCostModel(
            bandwidth=platform.bandwidth if platform else None
        ),
        bp_cost_model,
        calibrated,
        source="fpga",
    )


def hybrid_join_spilled(
    r_spill,
    s_spill,
    threads: int = 1,
    collect_payloads: bool = False,
    fpga_cost_model: Optional[FpgaCostModel] = None,
    bp_cost_model: Optional[BuildProbeCostModel] = None,
    calibrated: bool = True,
    engine=None,
) -> JoinResult:
    """Build+probe a join from two spilled (on-disk) partitionings.

    Args:
        r_spill / s_spill: completed
            :class:`~repro.storage.spill.PartitionSpill` handles (e.g.
            from :meth:`SpillPartitioner.run <repro.storage.spill.
            SpillPartitioner.run>` or a spill-routed
            :class:`~repro.service.service.PartitionResponse`).  Both
            must share a fan-out; the join plan streams partition pairs
            from disk one at a time, so the working set is one pair,
            not the relations.
        threads / collect_payloads / cost models / calibrated / engine:
            as in :func:`hybrid_join`.  Partitioning seconds are timed
            by the mode each spill *effectively* ran (PAD runs demoted
            to HIST accounting at merge are charged the retry, exactly
            like the in-memory path).

    Returns:
        A :class:`JoinResult`; ``timing.partitioner`` is labelled
        ``"spill ..."``.
    """
    if r_spill.num_partitions != s_spill.num_partitions:
        raise ConfigurationError(
            f"spills disagree on fan-out: {r_spill.num_partitions} vs "
            f"{s_spill.num_partitions}"
        )
    from repro.plan import execute_plan, join_query

    result = execute_plan(
        join_query(r_spill, s_spill, collect_payloads=collect_payloads),
        engine=engine,
        threads=threads,
    )
    return _timed_join(
        result,
        (r_spill.num_tuples, s_spill.num_tuples),
        threads,
        fpga_cost_model or FpgaCostModel(),
        bp_cost_model,
        calibrated,
        source="spill",
    )
