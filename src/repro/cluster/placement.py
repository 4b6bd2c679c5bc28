"""RePart-style hot-partition placement over the consistent-hash ring.

Plain consistent hashing fixes each partition to one shard, so a
Zipf-skewed key column concentrates the heavy partitions on whichever
shards happen to own them.  RePart's observation (PAPERS.md) is that
*replicating* hot partitions — making them routable to any of R shards
instead of exactly one — trades a little memory for balanced traffic:
the router may then place each hot partition on the least-loaded of
its replica candidates.

:class:`PlacementPolicy` implements that twist with the repo's own
signals:

* the **request itself** — the router's accounting pass produces the
  exact per-partition histogram, so hot partitions of *this* request
  are known before any tuple moves;
* the **Misra–Gries heavy-hitter sketch**
  (:class:`~repro.analysis.sketch.HeavyHitterSketch`) accumulated over
  past requests' keys, so persistent hot keys stay replicated even when
  an individual request looks mild;
* **exchange-plan skew metrics** from
  :class:`~repro.ops.distributed.ExchangePlan` — a distributed plan's
  ``partition_counts`` and ``receive_imbalance`` feed the same policy,
  so the cluster reuses what the all-to-all planner already measured.

Placement is deterministic: hot partitions are spread greedily
(largest first, onto the least-loaded replica candidate), so two
routers with the same observations make the same decision.
"""

from __future__ import annotations

import dataclasses
import threading
from typing import Dict, List, Optional

import numpy as np

from repro import kernels
from repro.analysis.sketch import HeavyHitterSketch
from repro.errors import ConfigurationError

__all__ = ["PlacementPlan", "PlacementPolicy"]

#: cap on how many keys one request feeds the sketch (keeps the
#: per-request policy cost bounded on multi-million-tuple requests).
#: A uniform sample of 4k keys surfaces any key with more than
#: ~hot_factor/P of the stream with high probability regardless of how
#: the input is ordered, and the Misra–Gries update loops over *unique*
#: sampled keys in Python, so the cap is what bounds the policy's
#: per-request cost.
_SKETCH_SAMPLE = 1 << 12


@dataclasses.dataclass
class PlacementPlan:
    """One request's partition→shard decision.

    ``owner`` is what the router scatters by; ``primary`` is what plain
    consistent hashing would have chosen.  ``hot`` marks the partitions
    that were eligible for replication; ``replica_candidates`` records,
    for each hot partition, the shard set its traffic may use.
    """

    owner: np.ndarray
    primary: np.ndarray
    hot: np.ndarray
    replica_candidates: Dict[int, List[int]]

    @property
    def moved_partitions(self) -> int:
        """Hot partitions actually placed off their primary."""
        return int(np.count_nonzero(self.owner != self.primary))

    @property
    def replicated_partitions(self) -> int:
        return int(np.count_nonzero(self.hot))


class PlacementPolicy:
    """Decides which partitions are hot and where their traffic goes.

    Args:
        replicas: base replication degree R — a hot partition may run
            on any of the first R distinct shards in its ring
            preference order.  ``1`` disables replication (pure
            consistent hashing).
        hot_factor: a partition is request-hot when its tuple count
            exceeds ``hot_factor`` fair shares of the request.
        sketch_capacity: Misra–Gries counter budget for the historical
            key sketch.
        imbalance_boost: when observed exchange-plan
            ``receive_imbalance`` exceeds this, the effective
            replication degree is raised by one (clamped to the shard
            count) — the cluster replicates more aggressively exactly
            when the all-to-all planner reports skew.  ``None``
            disables the adaptation.
        sample_seed: seed for the uniform key-sampling RNG used by
            :meth:`observe_keys`.  Two policies built with the same
            seed and fed the same observation sequence draw identical
            samples, keeping placement deterministic across routers.
    """

    def __init__(
        self,
        replicas: int = 2,
        hot_factor: float = 2.0,
        sketch_capacity: int = 64,
        imbalance_boost: Optional[float] = 1.5,
        sample_seed: int = 0x5EED,
    ):
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        if hot_factor <= 0:
            raise ConfigurationError(
                f"hot_factor must be positive, got {hot_factor}"
            )
        self.replicas = int(replicas)
        self.hot_factor = float(hot_factor)
        self.imbalance_boost = imbalance_boost
        self.sketch = HeavyHitterSketch(capacity=sketch_capacity)
        self._sample_rng = np.random.default_rng(sample_seed)
        self._lock = threading.Lock()
        self._observed_imbalance = 1.0
        #: decayed per-partition counts from observed exchange plans,
        #: keyed by fan-out (plans of other fan-outs can't be reused)
        self._plan_counts: Dict[int, np.ndarray] = {}

    # -- observations ---------------------------------------------------

    def observe_keys(self, keys: np.ndarray) -> None:
        """Feed one request's keys into the heavy-hitter sketch.

        Samples uniformly at random (seeded) rather than with a stride:
        a stride aliases against sorted, periodic, or run-length-
        clustered inputs — e.g. Zipf keys arriving as runs shorter than
        the stride are systematically skipped or over-weighted — while
        a uniform sample sees every key with probability proportional
        to its true frequency no matter how the stream is ordered.
        """
        keys = np.asarray(keys)
        if keys.size > _SKETCH_SAMPLE:
            with self._lock:
                idx = self._sample_rng.integers(
                    0, keys.size, size=_SKETCH_SAMPLE
                )
            keys = keys[idx]
        with self._lock:
            self.sketch.add(keys)

    def observe_plan(self, plan) -> None:
        """Absorb an :class:`~repro.ops.distributed.ExchangePlan`.

        Reuses the planner's skew metrics: ``partition_counts`` joins
        the historical per-partition signal (decayed 50/50 against what
        was already seen) and ``receive_imbalance`` drives the adaptive
        replication boost.
        """
        with self._lock:
            self._observed_imbalance = float(plan.receive_imbalance)
            counts = getattr(plan, "partition_counts", None)
            if counts is None:
                return
            counts = np.asarray(counts, dtype=np.float64)
            prior = self._plan_counts.get(len(counts))
            if prior is None:
                self._plan_counts[len(counts)] = counts.copy()
            else:
                self._plan_counts[len(counts)] = 0.5 * prior + 0.5 * counts

    def effective_replicas(self, num_shards: int) -> int:
        """Replication degree for the next placement decision."""
        replicas = self.replicas
        if (
            self.imbalance_boost is not None
            and self._observed_imbalance > self.imbalance_boost
        ):
            replicas += 1
        return max(1, min(replicas, num_shards))

    # -- hot detection --------------------------------------------------

    def hot_mask(
        self,
        counts: np.ndarray,
        num_partitions: int,
        uses_hash: bool = True,
    ) -> np.ndarray:
        """Boolean mask of partitions whose traffic deserves spreading.

        Union of the request-exact signal (count above ``hot_factor``
        fair shares), the sketch signal (a retained heavy-hitter key
        whose lower-bound share exceeds ``hot_factor / P`` maps into
        the partition), and the observed exchange-plan signal.
        """
        counts = np.asarray(counts, dtype=np.int64)
        total = int(counts.sum())
        hot = np.zeros(num_partitions, dtype=bool)
        if total > 0:
            hot |= counts > (self.hot_factor * total) / num_partitions
        with self._lock:
            counters = dict(self.sketch.counters)
            plan_counts = self._plan_counts.get(num_partitions)
            if plan_counts is not None:
                plan_counts = plan_counts.copy()
        if counters:
            sketch_total = sum(counters.values())
            threshold = (self.hot_factor * sketch_total) / num_partitions
            hot_keys = np.array(
                [k for k, v in counters.items() if v > threshold],
                dtype=np.uint32,
            )
            if hot_keys.size:
                parts, _, _ = kernels.hash_histogram(
                    hot_keys, num_partitions, uses_hash
                )
                hot[parts] = True
        if plan_counts is not None and plan_counts.sum() > 0:
            hot |= (
                plan_counts
                > (self.hot_factor * plan_counts.sum()) / num_partitions
            )
        return hot

    # -- placement ------------------------------------------------------

    def place(
        self,
        counts: np.ndarray,
        ring,
        uses_hash: bool = True,
    ) -> PlacementPlan:
        """Choose a serving shard per partition for one request.

        Cold partitions stay on their consistent-hash primary.  Hot
        partitions are spread greedily — largest first, each onto the
        currently least-loaded shard among its R replica candidates —
        which both preserves determinism and provably never increases
        the load of a shard beyond what keeping the partition home
        would have.
        """
        counts = np.asarray(counts, dtype=np.int64)
        num_partitions = len(counts)
        primary = ring.owners(num_partitions)
        owner = primary.copy()
        num_shards = len(ring)
        replicas = self.effective_replicas(num_shards)
        hot = self.hot_mask(counts, num_partitions, uses_hash)
        candidates: Dict[int, List[int]] = {}
        if replicas <= 1 or num_shards <= 1 or not hot.any():
            return PlacementPlan(
                owner=owner,
                primary=primary,
                hot=(
                    hot
                    if replicas > 1 and num_shards > 1
                    else np.zeros(num_partitions, dtype=bool)
                ),
                replica_candidates=candidates,
            )
        load = np.bincount(
            primary, weights=counts.astype(np.float64), minlength=num_shards
        )
        hot_ids = np.nonzero(hot)[0]
        # largest hot partition first: the greedy argmin choice then
        # packs the big rocks before the pebbles
        for p in hot_ids[np.argsort(-counts[hot_ids], kind="stable")]:
            p = int(p)
            cands = ring.preference(p, num_partitions, replicas)
            candidates[p] = cands
            load[owner[p]] -= counts[p]
            best = min(cands, key=lambda s: (load[s], s))
            owner[p] = best
            load[best] += counts[p]
        return PlacementPlan(
            owner=owner,
            primary=primary,
            hot=hot,
            replica_candidates=candidates,
        )
