"""Sketch-driven adaptive optimizer (ROADMAP item 4).

The repo already *measures* everything a partitioning decision needs:
the ingest sketches estimate cardinality and heavy-hitter shares
(:mod:`repro.analysis.sketch`), the Section 4.6 cost models predict
fpga/cpu rates (:mod:`repro.core.model`, :mod:`repro.cpu.cost_model`),
and the service records observed per-stage latencies.  The
:class:`AdaptiveOptimizer` closes the loop: it turns a
:class:`~repro.optimize.profile.WorkloadProfile` into a
:class:`Decision` — backend route, single- vs multi-pass, PAD rescue
strategy, heavy-hitter isolation set — and recalibrates its rate
estimates online from the latencies the service observes.

Two invariants shape the design:

* **Byte-identity.**  Partition contents and counts never depend on
  the execution plane (output mode, backend, isolation), so the
  optimizer may re-route freely without changing what a response
  contains — pinned by ``tests/test_optimizer.py``.  On the service
  path the request's fan-out/layout/hash are therefore kept; the
  standalone planner (:meth:`AdaptiveOptimizer.plan_config`) is where
  fan-out and HIST-vs-PAD are chosen from scratch.
* **Determinism.**  A decision is a pure function of (profile,
  config, calibration state, seed); two optimizers built with the same
  seed and fed the same observation sequence decide identically.

The escape hatch is :class:`StaticOptimizer` (or simply not attaching
an optimizer): every knob stays at the caller's static configuration.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.core.model import FpgaCostModel
from repro.core.modes import (
    HashKind,
    LayoutMode,
    OutputMode,
    PartitionerConfig,
)
from repro.cpu.cost_model import CpuCostModel
from repro.errors import ConfigurationError
from repro.optimize.profile import WorkloadProfile

__all__ = [
    "AdaptiveOptimizer",
    "Decision",
    "StaticOptimizer",
    "plan_fused_fanout",
]


def plan_fused_fanout(
    build_tuples: int,
    tuple_bytes: int = 8,
    cache_budget_bytes: Optional[int] = None,
    min_partitions: int = 16,
    max_partitions: int = 8192,
) -> int:
    """Fan-out for a fused partition→join→aggregate chain.

    The fused executor runs build, probe and reduceat per partition
    while the scattered data is still hot, so the fan-out must make the
    per-partition *build table* (keys + payloads + chain index) fit the
    cache budget the build+probe cost model charges against
    (``BP_CACHE_BUDGET_BYTES``).  Returns the smallest power of two
    whose fair build share fits, clamped to
    ``[min_partitions, max_partitions]``.
    """
    if cache_budget_bytes is None:
        from repro.constants import BP_CACHE_BUDGET_BYTES

        cache_budget_bytes = BP_CACHE_BUDGET_BYTES
    if cache_budget_bytes < 1:
        raise ConfigurationError(
            f"cache_budget_bytes must be >= 1, got {cache_budget_bytes}"
        )
    n = max(1, int(build_tuples))
    want = max(1, -(-(n * tuple_bytes) // cache_budget_bytes))
    fanout = 1 << max(0, (want - 1).bit_length())
    return max(min_partitions, min(max_partitions, fanout))

#: PAD rescue strategies a decision may pick for a PAD-mode request.
#: ``keep``: run PAD as configured; ``isolate``: carve exact-fit
#: regions for the sketch-hot keys; ``hist``: go straight to the
#: two-pass HIST layout instead of paying a doomed PAD attempt first.
PAD_STRATEGIES = ("keep", "isolate", "hist")


@dataclasses.dataclass(frozen=True)
class Decision:
    """One request's chosen execution plan.

    ``backend`` routes between the fpga data plane, the cpu fallback
    and the out-of-core spill engine (the multi-pass path).
    ``pad_strategy`` is the PAD-overflow insurance (see
    :data:`PAD_STRATEGIES`); ``isolate_keys`` is non-empty exactly when
    it is ``"isolate"``.  ``est_seconds`` is the calibrated cost-model
    prediction the choice was based on.
    """

    backend: str
    pad_strategy: str
    isolate_keys: Tuple[int, ...]
    multi_pass: bool
    est_seconds: float
    reason: str

    def __post_init__(self):
        if self.backend not in ("fpga", "cpu", "spill"):
            raise ConfigurationError(f"unknown backend {self.backend!r}")
        if self.pad_strategy not in PAD_STRATEGIES:
            raise ConfigurationError(
                f"unknown pad strategy {self.pad_strategy!r}"
            )

    @property
    def label(self) -> str:
        """Compact tag for decision counters and log lines."""
        return f"{self.backend}/{self.pad_strategy}"

    @property
    def batch_token(self) -> Tuple:
        """Hashable facet for the scheduler's batch signature.

        Requests with different decisions must not share a coalesced
        kernel pass (an isolated request's scatter differs from a
        plain one), so the token joins the batch key.
        """
        return (self.backend, self.pad_strategy, self.isolate_keys)


#: static escape-hatch decision: fpga, plain PAD/HIST, single pass.
STATIC_DECISION = Decision(
    backend="fpga",
    pad_strategy="keep",
    isolate_keys=(),
    multi_pass=False,
    est_seconds=0.0,
    reason="static",
)


class StaticOptimizer:
    """The escape hatch: every request keeps its static configuration.

    Implements the optimizer interface so ``optimizer=`` call sites
    need no special-casing, but never re-routes, never isolates and
    ignores observations.
    """

    def plan_for(
        self,
        profile: WorkloadProfile,
        config: PartitionerConfig,
    ) -> Decision:
        """Always the identity decision."""
        return STATIC_DECISION

    def decide(
        self,
        keys: np.ndarray,
        config: PartitionerConfig,
        reuse: bool = True,
    ) -> Decision:
        """Always the identity decision (keys are not even sketched)."""
        return STATIC_DECISION

    def observe(self, backend: str, num_tuples: int, seconds: float) -> None:
        """Observations are ignored."""

    def snapshot(self) -> dict:
        """Empty decision accounting."""
        return {"decisions": {}, "rates": {}, "observations": 0}


class AdaptiveOptimizer:
    """Decides execution plans from sketches + calibrated cost models.

    Args:
        seed: seed for the profiling sample RNG; two optimizers with
            the same seed and observation sequence decide identically.
        memory_budget_bytes: working-set ceiling for a single-pass run;
            a request whose in+out traffic estimate exceeds it is
            routed multi-pass through the spill engine.
        skew_factor: a key is isolation-worthy when its share exceeds
            ``skew_factor`` fair shares (matches the sketch and
            placement thresholds).
        cpu_margin: the cpu route must beat the fpga prediction by
            this factor before a request is re-routed — hysteresis so
            model noise cannot flap the service off its coalesced
            fpga batch path.
        cpu_threads: thread count assumed for the cpu cost model.
        ema: weight of the newest observation in the per-backend
            calibrated-rate moving average.
        reprofile_interval: a single-pass fpga decision may be reused
            for this many further same-config requests before the key
            column is profiled again — profiling costs a fraction of a
            kernel pass, and a stable workload need not pay it on
            every request.  Only byte-identical execution planes are
            ever cached (a stale plan can cost a hist rescue, never
            correctness), and callers can force a fresh profile per
            request (the service does, whenever a stale plan could
            surface an overflow raise).  ``0`` disables reuse.
        fpga_model / cpu_model: cost models (defaults constructed).
    """

    def __init__(
        self,
        seed: int = 0,
        memory_budget_bytes: int = 1 << 31,
        skew_factor: float = 2.0,
        cpu_margin: float = 1.25,
        cpu_threads: int = 10,
        ema: float = 0.3,
        reprofile_interval: int = 32,
        fpga_model: Optional[FpgaCostModel] = None,
        cpu_model: Optional[CpuCostModel] = None,
    ):
        if memory_budget_bytes < 1:
            raise ConfigurationError(
                f"memory_budget_bytes must be >= 1, got {memory_budget_bytes}"
            )
        if not 0.0 < ema <= 1.0:
            raise ConfigurationError(f"ema must be in (0, 1], got {ema}")
        if reprofile_interval < 0:
            raise ConfigurationError(
                f"reprofile_interval must be >= 0, got {reprofile_interval}"
            )
        self.seed = seed
        self.memory_budget_bytes = int(memory_budget_bytes)
        self.skew_factor = float(skew_factor)
        self.cpu_margin = float(cpu_margin)
        self.cpu_threads = int(cpu_threads)
        self.ema = float(ema)
        self.reprofile_interval = int(reprofile_interval)
        self.fpga_model = fpga_model or FpgaCostModel()
        self.cpu_model = cpu_model or CpuCostModel()
        self._rng = np.random.default_rng(seed)
        #: observed tuples/s EMA per backend; None until first sample
        self._observed: Dict[str, float] = {}
        self._observations = 0
        #: per-config reusable plan: config -> [decision, uses]
        self._plan_cache: Dict[PartitionerConfig, list] = {}
        self.decision_counts: collections.Counter = collections.Counter()

    # -- calibration ----------------------------------------------------

    def observe(self, backend: str, num_tuples: int, seconds: float) -> None:
        """Fold one executed request into the calibrated rates.

        Called by the service after each batch with the measured
        execute-stage latency; the per-backend EMA then overrides the
        pure model prediction in later decisions.  Degenerate samples
        (no tuples, non-positive wall time) are dropped.
        """
        if num_tuples <= 0 or seconds <= 0.0:
            return
        rate = num_tuples / seconds
        prev = self._observed.get(backend)
        self._observed[backend] = (
            rate if prev is None else (1 - self.ema) * prev + self.ema * rate
        )
        self._observations += 1

    def calibrated_rate(
        self, backend: str, config: PartitionerConfig, num_tuples: int
    ) -> float:
        """Tuples/s estimate: observed EMA if any, else the cost model."""
        observed = self._observed.get(backend)
        if observed is not None:
            return observed
        if backend == "cpu":
            return self.cpu_model.estimate(
                self.cpu_threads,
                HashKind.MURMUR if config.uses_hash else HashKind.RADIX,
                num_partitions=config.num_partitions,
                tuple_bytes=config.tuple_bytes,
            ).tuples_per_second
        rate = self.fpga_model.predict(
            config, max(1, num_tuples)
        ).tuples_per_second
        if backend == "spill":
            # the spill engine pays an extra disk round trip on top of
            # the in-memory pass; without an observation, assume half.
            return rate / 2.0
        return rate

    # -- decisions ------------------------------------------------------

    def plan_for(
        self,
        profile: WorkloadProfile,
        config: PartitionerConfig,
    ) -> Decision:
        """The pure decision core: (profile, config, state) → Decision.

        Service callers keep the request's fan-out/layout/hash (so the
        response stays byte-identical to the static path); this method
        only picks the execution plane.  All choices are monotone in
        the profile: raising a key's share never shrinks the isolation
        set, and growing the input never flips multi-pass back to
        single-pass at a fixed memory budget.
        """
        n = profile.num_tuples
        pad_strategy = "keep"
        isolate: Tuple[int, ...] = ()
        reasons: List[str] = []
        if config.output_mode is OutputMode.PAD and n > 0:
            isolate = self._isolation_set(profile, config)
            if self._predicts_cold_overflow(profile, config, isolate):
                # even isolation cannot save PAD: the *cold* mass alone
                # overflows, so skip the doomed PAD attempt entirely.
                pad_strategy, isolate = "hist", ()
                reasons.append("cold-overflow->hist")
            elif isolate:
                pad_strategy = "isolate"
                reasons.append(f"isolate:{len(isolate)}")

        # one pass streams the input in and the partitions out; HIST
        # reads the input twice (mode factor 2).
        est_bytes = (1 + config.mode_factor) * n * config.tuple_bytes
        multi_pass = est_bytes > self.memory_budget_bytes
        if multi_pass:
            backend = "spill"
            reasons.append(
                f"{est_bytes >> 20}MiB>" f"{self.memory_budget_bytes >> 20}MiB"
            )
        else:
            backend = "fpga"
            # cross-backend routing trusts only *measured* rates: the
            # two cost models rank configurations well within their own
            # backend, but their absolute scales are not comparable, so
            # the optimizer never routes away from the service's
            # default plane on model priors alone.
            if "cpu" in self._observed:
                fpga = self.calibrated_rate("fpga", config, n)
                cpu = self.calibrated_rate("cpu", config, n)
                if cpu > self.cpu_margin * fpga:
                    backend = "cpu"
                    reasons.append(f"cpu {cpu / max(fpga, 1.0):.2f}x")
        est_seconds = (
            n / self.calibrated_rate(backend, config, n) if n else 0.0
        )
        decision = Decision(
            backend=backend,
            pad_strategy=pad_strategy,
            isolate_keys=isolate,
            multi_pass=multi_pass,
            est_seconds=est_seconds,
            reason=";".join(reasons) or "default",
        )
        self.decision_counts[decision.label] += 1
        return decision

    def decide(
        self,
        keys: np.ndarray,
        config: PartitionerConfig,
        reuse: bool = True,
    ) -> Decision:
        """Profile a key column and plan its execution.

        With ``reuse`` (the default) a recent single-pass fpga decision
        for the same config is returned without re-profiling, up to
        ``reprofile_interval`` times.  Those decisions (``keep``,
        ``isolate``, ``hist``) are all byte-identical execution planes,
        so a stale one can never cost correctness — at worst a stale
        ``isolate`` set lets a cold partition overflow, which degrades
        that entry to the hist rescue (exactly the static path), and a
        stale ``keep`` *is* the static path.  Re-routing decisions
        (cpu, spill/multi-pass) are never reused: they should track
        fresh calibration.  Pass ``reuse=False`` when even the
        staleness window is unacceptable (the service does for
        raise-policy PAD requests).
        """
        if reuse and self.reprofile_interval:
            cached = self._plan_cache.get(config)
            if cached is not None and cached[1] < self.reprofile_interval:
                cached[1] += 1
                self.decision_counts[cached[0].label] += 1
                return cached[0]
        profile = WorkloadProfile.from_keys(
            keys, tuple_bytes=config.tuple_bytes, rng=self._rng
        )
        decision = self.plan_for(profile, config)
        if decision.backend == "fpga" and not decision.multi_pass:
            self._plan_cache[config] = [decision, 0]
        else:
            self._plan_cache.pop(config, None)
        return decision

    def _isolation_set(
        self, profile: WorkloadProfile, config: PartitionerConfig
    ) -> Tuple[int, ...]:
        """Retained hot keys whose partitions need exact-fit regions.

        Two signals, unioned:

        * the share rule — a key above ``skew_factor`` fair shares is
          isolation-worthy on its own (matches the sketch/placement
          threshold);
        * the capacity rule — hash every retained key to its partition
          and isolate *all* retained keys of any partition whose
          predicted mass (one full cold fair share plus the retained
          hot mass) exceeds the PAD capacity.  Several mid-weight keys
          sharing a partition overflow it just as surely as one giant
          key.

        Both rules are monotone non-decreasing in every share (the
        cold mass is upper-bounded by a share-independent fair share),
        so more skew can only grow the isolation set.
        """
        n = profile.num_tuples
        if not profile.hot_keys or n == 0:
            return ()
        P = config.num_partitions
        by_share = set(profile.isolation_keys(P, self.skew_factor))
        keys = np.asarray(profile.hot_keys, dtype=np.uint32)
        parts, _, _ = kernels.hash_histogram(keys, P, config.uses_hash)
        hot_mass = np.zeros(P, dtype=np.float64)
        np.add.at(
            hot_mass,
            parts.astype(np.int64),
            np.asarray(profile.hot_shares) * n,
        )
        capacity = config.partition_capacity(n)
        dangerous = hot_mass + n / P > capacity
        return tuple(
            int(key)
            for key, part in zip(profile.hot_keys, parts)
            if key in by_share or dangerous[part]
        )

    def _predicts_cold_overflow(
        self,
        profile: WorkloadProfile,
        config: PartitionerConfig,
        isolate: Tuple[int, ...],
    ) -> bool:
        """Would the non-isolated mass alone overflow a PAD region?

        The cold mass spreads over all partitions; its expected largest
        share is one fair share inflated by a low-cardinality spread
        factor (fewer distinct keys per partition → higher variance of
        the largest).  Monotone *decreasing* in the hot shares — so
        more skew can only move a profile toward isolation, never away
        from it — and scale-free in ``n``.
        """
        n = profile.num_tuples
        if n == 0:
            return False
        isolated = set(isolate)
        hot_share = sum(
            share
            for key, share in zip(profile.hot_keys, profile.hot_shares)
            if key in isolated
        )
        cold = (1.0 - min(1.0, hot_share)) * n
        keys_per_partition = max(
            1.0, profile.distinct_keys / config.num_partitions
        )
        spread = 1.0 + 4.0 / math.sqrt(keys_per_partition)
        expected_max = (cold / config.num_partitions) * spread
        return expected_max > config.partition_capacity(n)

    # -- standalone planning -------------------------------------------

    def plan_config(
        self,
        profile: WorkloadProfile,
        layout_mode: LayoutMode = LayoutMode.RID,
        target_partition_tuples: int = 1 << 15,
        min_partitions: int = 16,
        max_partitions: int = 8192,
    ) -> PartitionerConfig:
        """Choose fan-out and output mode for a fresh workload.

        Fan-out: the smallest power of two keeping the expected fair
        share under ``target_partition_tuples`` (a cache-resident
        partition for the downstream join), clamped to
        ``[min_partitions, max_partitions]``.  Mode: PAD (single pass)
        unless the profile predicts PAD cannot survive even with
        isolation, in which case HIST's two-pass exact layout wins.
        """
        n = max(1, profile.num_tuples)
        want = max(1, -(-n // target_partition_tuples))
        fanout = 1 << max(0, (want - 1).bit_length())
        fanout = max(min_partitions, min(max_partitions, fanout))
        config = PartitionerConfig(
            num_partitions=fanout,
            output_mode=OutputMode.PAD,
            layout_mode=layout_mode,
            tuple_bytes=profile.tuple_bytes,
        )
        isolate = profile.isolation_keys(fanout, self.skew_factor)
        if self._predicts_cold_overflow(profile, config, isolate):
            config = dataclasses.replace(
                config, output_mode=OutputMode.HIST
            )
        return config

    def explain(
        self,
        workloads: Dict[str, WorkloadProfile],
        config: Optional[PartitionerConfig] = None,
    ) -> List[dict]:
        """Decision table for a set of workloads (the CLI's view).

        With ``config`` given, decisions are planned against it (the
        service situation); without, each workload also gets a freshly
        planned fan-out/mode via :meth:`plan_config`.
        """
        rows = []
        for name, profile in sorted(workloads.items()):
            chosen = config or self.plan_config(profile)
            decision = self.plan_for(profile, chosen)
            rows.append(
                {
                    "workload": name,
                    "tuples": profile.num_tuples,
                    "distinct": profile.distinct_keys,
                    "max_share": round(profile.max_key_share, 4),
                    "config": chosen.mode_label,
                    "fanout": chosen.num_partitions,
                    "backend": decision.backend,
                    "pad_strategy": decision.pad_strategy,
                    "isolated_keys": len(decision.isolate_keys),
                    "multi_pass": decision.multi_pass,
                    "est_seconds": round(decision.est_seconds, 6),
                    "reason": decision.reason,
                }
            )
        return rows

    # -- observability --------------------------------------------------

    def snapshot(self) -> dict:
        """Decision counters + calibrated rates for the obs exporter."""
        return {
            "decisions": dict(self.decision_counts),
            "rates": {k: float(v) for k, v in sorted(self._observed.items())},
            "observations": self._observations,
        }
