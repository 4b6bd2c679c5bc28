"""Consistent-hash ring with virtual nodes — the cluster's address map.

The router needs a stable answer to one question: *which shard owns
partition ``p``?* — stable in the precise consistent-hashing sense
that adding or removing a shard moves only the keys that must move
(roughly a ``1 / shards`` fraction), never reshuffles the survivors.

Each shard contributes ``virtual_nodes`` points on a 32-bit ring; a
partition hashes to a ring position and is owned by the first shard
point clockwise from it.  Virtual nodes smooth the arc lengths, so the
per-shard load concentrates around the fair share with relative error
~``O(1 / sqrt(virtual_nodes))``; the property test in
``tests/test_cluster.py`` pins both the movement bound and the
smoothing.

Everything is deterministic under ``seed``: ring points come from the
partitioner's own :func:`~repro.core.hashing.murmur3_finalizer` over a
seed-salted encoding of ``(shard_id, vnode)``, so two routers built
with the same shard ids and seed agree on every ownership decision —
the property a real deployment needs for client-side routing.
"""

from __future__ import annotations

import zlib
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.hashing import murmur3_finalizer
from repro.errors import ConfigurationError

__all__ = ["ConsistentHashRing"]

#: golden-ratio odd constant for seed mixing (Knuth multiplicative)
_SEED_MIX = 0x9E3779B9


class ConsistentHashRing:
    """Consistent-hash ring mapping partition ids to shard ids.

    Args:
        shard_ids: initial shard identifiers (strings or ints); order
            does not matter — ownership depends only on the id set and
            the seed.
        virtual_nodes: ring points per shard.  More points mean
            smoother load and smaller movement variance on
            join/leave, at O(shards * virtual_nodes) lookup-table cost.
        seed: deterministic salt for every ring position.
    """

    def __init__(
        self,
        shard_ids: Sequence,
        virtual_nodes: int = 64,
        seed: int = 0,
    ):
        if virtual_nodes < 1:
            raise ConfigurationError(
                f"virtual_nodes must be >= 1, got {virtual_nodes}"
            )
        self.virtual_nodes = int(virtual_nodes)
        self.seed = int(seed)
        self._shards: List = []
        self._points: np.ndarray = np.empty(0, dtype=np.uint32)
        self._point_shard: np.ndarray = np.empty(0, dtype=np.int64)
        #: cache of partition->position arrays, keyed by fan-out
        self._partition_positions: Dict[int, np.ndarray] = {}
        seen = set()
        for shard_id in shard_ids:
            if shard_id in seen:
                raise ConfigurationError(
                    f"duplicate shard id {shard_id!r} in ring"
                )
            seen.add(shard_id)
            self._shards.append(shard_id)
        if not self._shards:
            raise ConfigurationError("ring needs at least one shard")
        self._rebuild()

    # -- construction ---------------------------------------------------

    def _shard_points(self, shard_id) -> np.ndarray:
        """The ``virtual_nodes`` ring positions of one shard.

        Positions depend only on ``(shard_id, vnode, seed)`` — never on
        the other shards — which is exactly what bounds key movement:
        a join adds points, a leave removes points, nothing else on the
        ring shifts.
        """
        base = zlib.crc32(repr(shard_id).encode()) & 0xFFFFFFFF
        salt = (self.seed * _SEED_MIX) & 0xFFFFFFFF
        vnodes = np.arange(self.virtual_nodes, dtype=np.uint32)
        mixed = murmur3_finalizer(
            np.full(self.virtual_nodes, base, dtype=np.uint32)
            ^ np.uint32(salt)
        )
        return murmur3_finalizer(mixed + vnodes * np.uint32(_SEED_MIX))

    def _rebuild(self) -> None:
        points = np.concatenate(
            [self._shard_points(s) for s in self._shards]
        )
        shard_index = np.repeat(
            np.arange(len(self._shards), dtype=np.int64),
            self.virtual_nodes,
        )
        # sort by (point, shard index) so coincident points break ties
        # deterministically by shard order
        order = np.lexsort((shard_index, points))
        self._points = points[order]
        self._point_shard = shard_index[order]
        self._partition_positions.clear()

    # -- membership -----------------------------------------------------

    @property
    def shard_ids(self) -> List:
        """The current shard id list (insertion order)."""
        return list(self._shards)

    def __len__(self) -> int:
        return len(self._shards)

    def __contains__(self, shard_id) -> bool:
        return shard_id in self._shards

    def add_shard(self, shard_id) -> None:
        """Join a shard; only keys landing on its new points move."""
        if shard_id in self._shards:
            raise ConfigurationError(f"shard {shard_id!r} already in ring")
        self._shards.append(shard_id)
        self._rebuild()

    def remove_shard(self, shard_id) -> None:
        """Leave a shard; only its own keys move, to their successors."""
        if shard_id not in self._shards:
            raise ConfigurationError(f"shard {shard_id!r} not in ring")
        if len(self._shards) == 1:
            raise ConfigurationError("cannot remove the last shard")
        self._shards.remove(shard_id)
        self._rebuild()

    # -- lookup ---------------------------------------------------------

    def _positions_for(self, num_partitions: int) -> np.ndarray:
        """Ring positions of partitions ``0..P-1`` (cached per fan-out).

        Partition positions are independent of membership, so the cache
        survives join/leave — only the successor search repeats.
        """
        positions = self._partition_positions.get(num_partitions)
        if positions is None:
            if num_partitions < 1:
                raise ConfigurationError(
                    f"num_partitions must be >= 1, got {num_partitions}"
                )
            salt = (self.seed * _SEED_MIX + 1) & 0xFFFFFFFF
            positions = murmur3_finalizer(
                np.arange(num_partitions, dtype=np.uint32)
                ^ np.uint32(salt)
            )
            self._partition_positions[num_partitions] = positions
        return positions

    def owners(self, num_partitions: int) -> np.ndarray:
        """Primary shard *index* (into :attr:`shard_ids`) per partition.

        Vectorised successor search: one ``searchsorted`` against the
        sorted ring points, wrapping past the last point to the first.
        """
        positions = self._positions_for(num_partitions)
        slots = np.searchsorted(self._points, positions, side="left")
        slots %= len(self._points)
        return self._point_shard[slots]

    def owner_of(self, partition: int, num_partitions: int):
        """Primary shard *id* of one partition."""
        return self._shards[int(self.owners(num_partitions)[partition])]

    def preference(
        self, partition: int, num_partitions: int, count: Optional[int] = None
    ) -> List[int]:
        """Ordered failover/replica candidates for one partition.

        Walks the ring clockwise from the partition's position and
        collects the first ``count`` *distinct* shards (default: all of
        them).  The first entry is the primary; replica sets are
        disjoint from it and from each other by construction.
        """
        if count is None:
            count = len(self._shards)
        count = min(count, len(self._shards))
        positions = self._positions_for(num_partitions)
        start = int(
            np.searchsorted(
                self._points, positions[partition], side="left"
            )
        ) % len(self._points)
        chosen: List[int] = []
        seen = set()
        for step in range(len(self._points)):
            shard = int(self._point_shard[(start + step) % len(self._points)])
            if shard not in seen:
                seen.add(shard)
                chosen.append(shard)
                if len(chosen) == count:
                    break
        return chosen
