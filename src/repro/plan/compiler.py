"""Plan compiler: fuse the chain, or decline with a reason.

``compile_plan`` turns a :class:`~repro.plan.nodes.LogicalPlan` into a
:class:`CompiledSchedule` — the resolved per-input configs plus the
knobs (engine, tracer, optimizer) the executor needs.  Compilation
checks the **fusion rules**:

1. every input of a join must share the partition-relevant config
   (fan-out, hash kind, hash-vs-radix) — a key must land in the same
   partition on both sides, and a spilled input's partitioning is
   already fixed on disk;
2. there must be a downstream consumer (join or aggregate): a
   partition-only plan has nothing to fuse into, so the materialized
   :class:`~repro.core.partitioner.PartitionedOutput` *is* the result;
3. no platform attached: coherence/QPI accounting is defined over
   materialized FPGA-written regions, which the fused pass never
   assembles.

Rule 1 failing is a :class:`~repro.errors.ConfigurationError` (the
staged path cannot run it either); rules 2–3 raise
:class:`FusionDeclined`, which the executor catches to fall back to
staged execution with the reason recorded on the result.  The configs
are resolved before the rules are checked, so a declined plan carries
the same schedule a fused one would run.

When no config is given, the fan-out comes from the optimizer:
:func:`~repro.optimize.optimizer.plan_fused_fanout` sizes partitions so
each per-partition build table fits the build+probe cache budget.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Tuple

from repro.core.modes import PartitionerConfig
from repro.errors import ConfigurationError, ReproError
from repro.plan.nodes import LogicalPlan

__all__ = ["CompiledSchedule", "FusionDeclined", "compile_plan"]


class FusionDeclined(ReproError):
    """The plan cannot be fused; carries the human-readable reason and
    the resolved schedule the staged fallback runs."""

    def __init__(self, reason: str, schedule: "CompiledSchedule"):
        super().__init__(f"fusion declined: {reason}")
        self.reason = reason
        self.schedule = schedule


@dataclasses.dataclass
class CompiledSchedule:
    """A compiled plan: resolved configs + execution knobs.

    ``configs`` aligns with ``plan.scans`` and holds each input's
    *requested* partitioner config (a spilled input contributes the
    config its spill effectively ran).  ``on_overflow`` is the PAD
    policy shared by the in-memory partition nodes.
    """

    plan: LogicalPlan
    configs: Tuple[PartitionerConfig, ...]
    on_overflow: str
    engine: object = None
    tracer: object = None
    optimizer: object = None

    @property
    def num_partitions(self) -> int:
        return self.configs[0].num_partitions


def _partition_signature(config: PartitionerConfig) -> tuple:
    """The config fields that decide *which partition a key lands in*."""
    return (config.num_partitions, config.hash_kind, config.uses_hash)


def _default_config(plan: LogicalPlan, optimizer) -> PartitionerConfig:
    """Plan a config for scans that did not bring one.

    Fan-out sizes the *build side* (scan 0) per-partition table to the
    build+probe cache budget; HIST mode because the fused chain keeps
    partitions as lazy slices (PAD's single-pass layout buys nothing
    while its overflow risk remains).
    """
    build_tuples = plan.scans[0].num_tuples
    if optimizer is not None and hasattr(optimizer, "plan_chain_config"):
        return optimizer.plan_chain_config(build_tuples)
    from repro.optimize.optimizer import plan_fused_fanout

    return PartitionerConfig(num_partitions=plan_fused_fanout(build_tuples))


def compile_plan(
    plan: LogicalPlan,
    engine=None,
    threads: Optional[int] = None,
    tracer=None,
    optimizer=None,
    platform=None,
) -> CompiledSchedule:
    """Compile a plan into a fused schedule (or raise).

    Raises:
        FusionDeclined: the plan is executable but not fusable (rules
            2–3 above); callers fall back to staged execution of the
            schedule it carries.
        ConfigurationError: the plan is invalid for *any* execution
            path (e.g. join inputs that partition keys differently).
    """
    from repro.exec.engine import resolve_engine
    from repro.obs.tracing import resolve_tracer

    configs: List[Optional[PartitionerConfig]] = []
    policies = set()
    for scan, node in zip(plan.scans, plan.partitions):
        if scan.is_spilled:
            if node.config is not None and _partition_signature(
                node.config
            ) != _partition_signature(scan.source.config):
                raise ConfigurationError(
                    f"scan {scan.name!r} is spilled with "
                    f"{scan.source.config.num_partitions}-way "
                    f"{scan.source.config.hash_kind.value} partitioning; "
                    "the partition node requests an incompatible config"
                )
            configs.append(scan.source.config)
        else:
            configs.append(node.config)
            policies.add(node.on_overflow)

    if len(policies) > 1:
        raise ConfigurationError(
            f"partition nodes disagree on the overflow policy: {policies}"
        )
    on_overflow = policies.pop() if policies else "raise"

    # One shared config for the chain: explicit ones must agree on the
    # partition function; config-less in-memory scans inherit it (or a
    # freshly planned one when nobody brought a config).
    explicit = [c for c in configs if c is not None]
    if explicit:
        signatures = {_partition_signature(c) for c in explicit}
        if len(signatures) > 1:
            raise ConfigurationError(
                "join inputs partition keys differently "
                f"({[c.mode_label + f'/{c.num_partitions}' for c in explicit]}); "
                "repartition one side first"
            )
        shared = explicit[0]
    else:
        shared = _default_config(plan, optimizer)
    resolved = tuple(c if c is not None else shared for c in configs)

    schedule = CompiledSchedule(
        plan=plan,
        configs=resolved,
        on_overflow=on_overflow,
        engine=resolve_engine(engine, threads, tracer=tracer),
        tracer=resolve_tracer(tracer),
        optimizer=optimizer,
    )
    if plan.join is None and plan.aggregate is None:
        raise FusionDeclined(
            "partition-only plan: no downstream operator to fuse, the "
            "materialized PartitionedOutput is the result",
            schedule,
        )
    if platform is not None:
        raise FusionDeclined(
            "platform accounting requires materialized partition "
            "regions (coherence directory tracks FPGA-written memory)",
            schedule,
        )
    return schedule
