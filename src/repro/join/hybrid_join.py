"""The hybrid join: FPGA partitioning + CPU build+probe (Section 5).

The headline experiment of the paper.  The FPGA partitions both
relations (any of its four modes); the CPU then builds and probes the
cache-resident hash tables — paying the coherence penalty for touching
FPGA-written memory (Section 2.2).  When a PAD-mode run overflows on a
skewed relation, the join transparently retries in HIST mode or falls
back to the CPU partitioner, per the chosen policy (Section 5.4).

Relations too large to partition in memory can come in pre-partitioned
on disk: :func:`hybrid_join_spilled` builds and probes directly from
two :class:`~repro.storage.spill.PartitionSpill` handles, reading
one partition pair at a time — the out-of-core completion of the same
join.
"""

from __future__ import annotations

from typing import Optional

from repro.core.model import FpgaCostModel
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner, OverflowPolicy
from repro.errors import ConfigurationError
from repro.join.build_probe import BuildProbeCostModel, shares_if_dense
from repro.join.radix_join import _join_partitions
from repro.join.timing import JoinResult, JoinTiming
from repro.platform.machine import XeonFpgaPlatform
from repro.workloads.relations import Workload


def _partition_timing(
    config: PartitionerConfig,
    pairs,
    fpga_cost_model: FpgaCostModel,
    threads: int,
    calibrated: bool,
):
    """Partitioning seconds + effective mode labels for a join's inputs.

    ``pairs`` is ``(tuple_bytes, output, n_timing)`` triples where
    ``output`` exposes ``fell_back_to_cpu`` and ``config`` — either a
    full :class:`~repro.core.partitioner.PartitionedOutput` or the
    fused executor's :class:`~repro.plan.executor.InputSummary`.  Each
    relation is timed by the mode that actually ran for it — overflow
    may have forced one (usually the skewed S) into HIST or onto the
    CPU, with the aborted PAD pass still charged (worst case of
    Section 5.4: detection at the very end of the run).
    """
    partition_seconds = 0.0
    effective_labels = []
    for tuple_bytes, output, n_timing in pairs:
        if output.fell_back_to_cpu:
            from repro.cpu.cost_model import CpuCostModel

            cpu_seconds = CpuCostModel().partitioning_seconds(
                n_timing,
                threads,
                hash_kind=config.hash_kind,
                num_partitions=config.num_partitions,
                tuple_bytes=tuple_bytes,
            )
            aborted = fpga_cost_model.partitioning_seconds(
                n_timing, config, calibrated=calibrated
            )
            partition_seconds += cpu_seconds + aborted
            effective_labels.append("cpu-fallback")
            continue
        partition_seconds += fpga_cost_model.partitioning_seconds(
            n_timing, output.config, calibrated=calibrated
        )
        if (
            config.output_mode is OutputMode.PAD
            and output.config.output_mode is OutputMode.HIST
        ):
            partition_seconds += fpga_cost_model.partitioning_seconds(
                n_timing, config, calibrated=calibrated
            )
            effective_labels.append(output.config.mode_label + "(retry)")
        else:
            effective_labels.append(output.config.mode_label)
    return partition_seconds, effective_labels


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
    fused: bool = False,
) -> JoinResult:
    """Execute and time a hybrid FPGA/CPU radix hash join.

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
            the partitioning phases and the per-partition build+probe
            without changing the functional result.
        fused: run through the plan layer's fused one-pass executor
            (:func:`repro.plan.execute_plan`) — build+probe starts per
            partition as soon as the scatter lands, with no
            materialized ``PartitionedOutput`` between the stages.
            Row-identical to the staged path; when fusion is declined
            (e.g. a ``platform`` is attached), the staged operators run
            with the reason recorded.

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

    from repro.exec.engine import resolve_engine

    engine = resolve_engine(engine, threads)

    if fused:
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
            platform=platform,
        )
        r_out, s_out = result.inputs
        matches, r_pay, s_pay = (
            result.matches, result.r_payloads, result.s_payloads
        )
    else:
        partitioner = FpgaPartitioner(
            config, platform=platform, engine=engine
        )
        r_out = partitioner.partition(r, on_overflow=on_overflow)
        s_out = partitioner.partition(s, on_overflow=on_overflow)

        matches, r_pay, s_pay = _join_partitions(
            r_out, s_out, collect_payloads, engine=engine
        )

    fell_back = r_out.fell_back_to_cpu or s_out.fell_back_to_cpu

    fpga_cost_model = fpga_cost_model or FpgaCostModel(
        bandwidth=platform.bandwidth if platform else None
    )
    bp_cost_model = bp_cost_model or BuildProbeCostModel()

    n_r = timing_r_tuples if timing_r_tuples is not None else len(r)
    n_s = timing_s_tuples if timing_s_tuples is not None else len(s)
    partition_seconds, effective_labels = _partition_timing(
        config,
        ((r.tuple_bytes, r_out, n_r), (s.tuple_bytes, s_out, n_s)),
        fpga_cost_model,
        threads,
        calibrated,
    )

    max_share = max(
        r_out.max_partition_tuples() / max(1, len(r)),
        s_out.max_partition_tuples() / max(1, len(s)),
    )
    bp = bp_cost_model.estimate(
        r_tuples=n_r,
        s_tuples=n_s,
        num_partitions=config.num_partitions,
        threads=threads,
        tuple_bytes=r.tuple_bytes,
        fpga_partitioned=not fell_back,
        max_partition_share=max_share,
        r_shares=shares_if_dense(r_out.counts, len(r)),
        s_shares=shares_if_dense(s_out.counts, len(s)),
    )
    label = (
        "cpu-fallback" if fell_back else f"fpga {'+'.join(effective_labels)}"
    )
    if fused:
        label += " fused"
    timing = JoinTiming(
        partition_seconds=partition_seconds,
        build_probe_seconds=bp.total_seconds,
        r_tuples=n_r,
        s_tuples=n_s,
        threads=threads,
        partitioner=label,
        num_partitions=config.num_partitions,
    )
    return JoinResult(
        matches=matches,
        r_payloads=r_pay,
        s_payloads=s_pay,
        timing=timing,
        fell_back_to_cpu=fell_back,
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
            must share a fan-out; partition pairs are read from disk
            one at a time, so the working set is one pair, not the
            relations.
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
    r_out = r_spill.to_output()
    s_out = s_spill.to_output()

    from repro.exec.engine import resolve_engine

    engine = resolve_engine(engine, threads)
    matches, r_pay, s_pay = _join_partitions(
        r_out, s_out, collect_payloads, engine=engine
    )

    fpga_cost_model = fpga_cost_model or FpgaCostModel()
    bp_cost_model = bp_cost_model or BuildProbeCostModel()
    n_r, n_s = r_spill.num_tuples, s_spill.num_tuples
    partition_seconds = 0.0
    labels = []
    for spill, n in ((r_spill, n_r), (s_spill, n_s)):
        partition_seconds += fpga_cost_model.partitioning_seconds(
            n, spill.config, calibrated=calibrated
        )
        if spill.config != spill.requested_config:
            # PAD overflow demoted to HIST at merge: charge the
            # aborted PAD pass too, like the in-memory retry
            partition_seconds += fpga_cost_model.partitioning_seconds(
                n, spill.requested_config, calibrated=calibrated
            )
            labels.append(spill.config.mode_label + "(retry)")
        else:
            labels.append(spill.config.mode_label)

    max_share = max(
        r_out.max_partition_tuples() / max(1, n_r),
        s_out.max_partition_tuples() / max(1, n_s),
    )
    bp = bp_cost_model.estimate(
        r_tuples=n_r,
        s_tuples=n_s,
        num_partitions=r_spill.num_partitions,
        threads=threads,
        tuple_bytes=r_spill.config.tuple_bytes,
        fpga_partitioned=True,
        max_partition_share=max_share,
        r_shares=shares_if_dense(r_out.counts, n_r),
        s_shares=shares_if_dense(s_out.counts, n_s),
    )
    timing = JoinTiming(
        partition_seconds=partition_seconds,
        build_probe_seconds=bp.total_seconds,
        r_tuples=n_r,
        s_tuples=n_s,
        threads=threads,
        partitioner=f"spill {'+'.join(labels)}",
        num_partitions=r_spill.num_partitions,
    )
    return JoinResult(
        matches=matches,
        r_payloads=r_pay,
        s_payloads=s_pay,
        timing=timing,
    )
