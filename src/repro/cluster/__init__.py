"""Sharded partition cluster: many service nodes, one front door.

The "millions of users" layer: N in-process
:class:`~repro.service.service.PartitionService` shard nodes behind a
:class:`~repro.cluster.router.ShardRouter` that routes by
consistent-hash ring (:mod:`~repro.cluster.ring`), replicates hot
partitions RePart-style (:mod:`~repro.cluster.placement`), fails over
to replicas on shard death, and hands spill runs off to peers under
memory pressure (:mod:`~repro.cluster.handoff`) — while holding the
repo's invariant that cluster output is byte-identical to a
single-node ``partition()`` in every mode.
"""

from repro.cluster.handoff import HandoffResult, SpillHandoff
from repro.cluster.node import ShardNode, ShardStats
from repro.cluster.placement import PlacementPlan, PlacementPolicy
from repro.cluster.ring import ConsistentHashRing
from repro.cluster.router import ClusterResponse, ShardRouter

__all__ = [
    "ClusterResponse",
    "ConsistentHashRing",
    "HandoffResult",
    "PlacementPlan",
    "PlacementPolicy",
    "ShardNode",
    "ShardRouter",
    "ShardStats",
    "SpillHandoff",
]
