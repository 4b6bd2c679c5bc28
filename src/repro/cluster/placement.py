"""RePart-style hot-partition placement over the consistent-hash ring.

Plain consistent hashing fixes each partition to one shard, so a
Zipf-skewed key column concentrates the heavy partitions on whichever
shards happen to own them.  RePart's observation (PAPERS.md) is that
*replicating* hot partitions — making them routable to any of R shards
instead of exactly one — trades a little memory for balanced traffic:
the router may then place each hot partition on the least-loaded of
its replica candidates.

:func:`place` implements that twist from one signal, the request
itself: the router's accounting pass produces the exact per-partition
histogram, so the hot partitions of *this* request are known before any
tuple moves.  Placement is a pure function of that histogram, the ring
and the replication degree — no state carries over between requests —
so two routers given the same request make the same decision, and a
request's placement does not depend on what was served before it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["HOT_FACTOR", "PlacementPlan", "place"]

#: a partition is hot when it holds more than this many fair shares
#: (``n / P`` tuples) of its request
HOT_FACTOR = 2.0


@dataclasses.dataclass
class PlacementPlan:
    """One request's partition→shard decision.

    ``owner`` is what the router scatters by; ``hot`` marks the
    partitions that were spread over their replica candidates.
    """

    owner: np.ndarray
    hot: np.ndarray

    @property
    def replicated_partitions(self) -> int:
        """How many partitions the placement treated as hot."""
        return int(np.count_nonzero(self.hot))


def place(counts: np.ndarray, ring, replicas: int) -> PlacementPlan:
    """Choose a serving shard per partition for one request.

    Cold partitions stay on their consistent-hash primary.  Hot
    partitions (more than :data:`HOT_FACTOR` fair shares of the
    request) are spread greedily — largest first, each onto the
    currently least-loaded shard among its first ``replicas`` ring
    preferences — which is deterministic and never raises a shard's
    load above what keeping the partition home would have.
    ``replicas <= 1`` or a single-shard ring is plain consistent
    hashing: the ring owners, nothing hot.
    """
    counts = np.asarray(counts, dtype=np.int64)
    num_partitions = len(counts)
    num_shards = len(ring)
    owner = ring.owners(num_partitions)
    replicas = min(int(replicas), num_shards)
    if replicas <= 1:
        return PlacementPlan(owner, np.zeros(num_partitions, dtype=bool))
    hot = counts > HOT_FACTOR * counts.sum() / num_partitions
    load = np.bincount(owner, weights=counts, minlength=num_shards)
    hot_ids = np.nonzero(hot)[0]
    # largest hot partition first: the greedy argmin choice then
    # packs the big rocks before the pebbles
    for p in hot_ids[np.argsort(-counts[hot_ids], kind="stable")]:
        p = int(p)
        load[owner[p]] -= counts[p]
        best = min(
            ring.preference(p, num_partitions, replicas),
            key=lambda s: (load[s], s),
        )
        owner[p] = best
        load[best] += counts[p]
    return PlacementPlan(owner, hot)
