"""The cluster front door: route, fail over, hand off, reassemble.

:class:`ShardRouter` makes N in-process
:class:`~repro.service.service.PartitionService` shard nodes look like
one partitioner.  The contract is the repo's standing invariant,
extended across the network boundary: for every HIST/PAD × RID/VRID
mode, :meth:`ShardRouter.partition` returns output **byte-identical**
to a single-node
:meth:`~repro.core.partitioner.FpgaPartitioner.partition` — same
partition contents in the same order, same counts, line layout, byte
traffic and padding — regardless of shard count, replication, replica
failover, or spill handoff.

How the identity is held — the router is one caller of the
"partitioning in pieces" recipe of :mod:`repro.core.pieces`, its pieces
being *partition subsets* rather than input sub-ranges:

* **Routing is by partition, with a stable scatter.**  The router runs
  one global :func:`repro.kernels.hash_histogram` pass (the same fused
  kernel the single-node path uses), so it knows every tuple's
  partition and the exact global histogram before anything moves.
  Tuples are scattered to shards with the stable scatter kernel, so
  each shard receives its partitions' tuples in input order.
* **Shards run the request's** :func:`~repro.core.pieces.piece_config`
  with global positions as payloads, so a shard's output partition
  ``p`` is exactly the global partition ``p`` — which is also why *any*
  replica produces identical bytes, making failover and replication
  invisible in the output.
* **Layout, traffic and the PAD overflow policy come from**
  :meth:`Accounting.finalize <repro.core.pieces.Accounting.finalize>`
  over the global histogram, *before* routing (the hardware aborts
  before scattering; so does the cluster).
* **The output columns are lazy**: a
  :class:`~repro.core.pieces.PieceColumn` maps partition ``p`` to the
  serving shard's (or handoff spill's) column, so reassembly copies
  nothing.

Failure handling: a dead shard (submit raises), a FAILED/timed-out
response, or an OPEN router-side breaker sends the affected partitions
to the next healthy shard in their ring preference order — replica
failover.  A REJECTED response or a slice above the shard's
``handoff_tuples`` budget triggers cross-node spill handoff
(:mod:`repro.cluster.handoff`) — borrow a peer's memory before
shedding load.  ``DegradationPolicy`` semantics are preserved end to
end: each shard's own policy still decides FPGA vs CPU, and every
shard-level downgrade surfaces on the :class:`ClusterResponse`.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import tempfile
import time
from typing import List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.cluster.handoff import DEFAULT_HANDOFF_BYTES, SpillHandoff
from repro.cluster.node import ShardNode
from repro.cluster.placement import PlacementPolicy
from repro.cluster.ring import ConsistentHashRing
from repro.core.modes import PartitionerConfig
from repro.core.partitioner import (
    OverflowPolicy,
    PartitionedOutput,
)
from repro.core.pieces import (
    Accounting,
    PieceColumn,
    extract_columns,
    piece_config,
)
from repro.errors import ConfigurationError, ReproError
from repro.obs.tracing import resolve_tracer
from repro.service.service import (
    PartitionRequest,
    RequestStatus,
)
from repro.workloads.relations import Relation

__all__ = ["ClusterResponse", "ShardRouter"]


def _serving_column(sources: List) -> PieceColumn:
    """Partition ``p`` read from ``sources[p]``, the shard-output (or
    handoff-spill) column that serves it; empty partitions have none."""

    def read(p: int) -> Optional[np.ndarray]:
        source = sources[p]
        return None if source is None else source[p]

    return PieceColumn(len(sources), read)


@dataclasses.dataclass
class ClusterResponse:
    """Terminal result of one cluster-routed partition request."""

    status: RequestStatus
    output: Optional[PartitionedOutput] = None
    #: shard id serving each partition (None for empty partitions)
    shard_of_partition: Optional[List[Optional[str]]] = None
    replicated_partitions: int = 0
    moved_partitions: int = 0
    failovers: int = 0
    handoffs: int = 0
    #: backends reported by the shards ("fpga"/"cpu"/"spill"/"handoff")
    backends: Tuple[str, ...] = ()
    degraded: bool = False
    degrade_reasons: Tuple[str, ...] = ()
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK


@dataclasses.dataclass
class _Job:
    """One shard submission: a slice of the input plus its partitions."""

    shard: int
    partitions: np.ndarray
    keys: np.ndarray
    payloads: np.ndarray

    @property
    def tuples(self) -> int:
        return int(self.keys.shape[0])


class _RequestFailed(ReproError):
    """Internal: no healthy shard can serve some partition."""


class ShardRouter:
    """Consistent-hash front-end over N in-process shard services.

    Args:
        shards: cluster size (``int`` builds ``shard-0..N-1``), a
            sequence of shard-id strings, or a sequence of ready
            :class:`~repro.cluster.node.ShardNode` instances.
        virtual_nodes / seed: consistent-hash ring shape (see
            :class:`~repro.cluster.ring.ConsistentHashRing`).
        replicas: replication degree for hot partitions (forwarded to
            the default :class:`PlacementPolicy`).
        placement: a :class:`PlacementPolicy`, ``None`` for the default
            policy, or ``False`` for plain consistent hashing (no
            replication — the benchmark baseline).
        optimizer: optional
            :class:`~repro.optimize.optimizer.AdaptiveOptimizer`; when
            given, each request's key column is profiled and the
            sketch-hot set feeds the placement policy's adaptive
            replication degree (``observe_profile``).
        service_kwargs: forwarded to every shard's
            :class:`~repro.service.service.PartitionService`.
        handoff_tuples: default memory-pressure threshold applied to
            every built shard (per-node override via ``ShardNode``).
        handoff_bytes_in_memory: spill budget for handoff runs.
        storage_root: base directory for shard storage roots; a
            temporary one is created if omitted and removed by
            :meth:`stop`.
        request_timeout_s: per-shard-call resolve timeout before the
            router treats the shard as failed.
        tracer / clock: shared across router, shards and handoffs.
    """

    def __init__(
        self,
        shards=3,
        *,
        virtual_nodes: int = 64,
        seed: int = 0,
        replicas: int = 2,
        placement=None,
        service_kwargs: Optional[dict] = None,
        handoff_tuples: Optional[int] = None,
        handoff_bytes_in_memory: int = DEFAULT_HANDOFF_BYTES,
        storage_root=None,
        request_timeout_s: float = 30.0,
        tracer=None,
        clock=time.monotonic,
        optimizer=None,
    ):
        self.tracer = resolve_tracer(tracer)
        self.optimizer = optimizer
        self._clock = clock
        self.request_timeout_s = request_timeout_s
        #: storage root this router created itself (removed on stop)
        self._owned_root: Optional[str] = None
        self._nodes: List[ShardNode] = self._build_nodes(
            shards, storage_root, service_kwargs, handoff_tuples, clock
        )
        if len({node.shard_id for node in self._nodes}) != len(self._nodes):
            raise ConfigurationError("shard ids must be unique")
        self.ring = ConsistentHashRing(
            [node.shard_id for node in self._nodes],
            virtual_nodes=virtual_nodes,
            seed=seed,
        )
        if placement is False:
            self.placement: Optional[PlacementPolicy] = None
        elif placement is None:
            self.placement = PlacementPolicy(replicas=replicas)
        else:
            self.placement = placement
        self.handoff = SpillHandoff(
            bytes_in_memory=handoff_bytes_in_memory,
            tracer=tracer,
        )
        self._started = False
        #: router-level counters (see :meth:`snapshot`)
        self.stats = {
            "requests": 0,
            "completed": 0,
            "failed": 0,
            "failovers": 0,
            "handoffs": 0,
            "degraded": 0,
        }

    def _build_nodes(
        self, shards, storage_root, service_kwargs, handoff_tuples, clock
    ) -> List[ShardNode]:
        if isinstance(shards, int):
            if shards < 1:
                raise ConfigurationError(
                    f"shards must be >= 1, got {shards}"
                )
            shards = [f"shard-{i}" for i in range(shards)]
        shards = list(shards)
        if shards and isinstance(shards[0], ShardNode):
            return shards
        if storage_root is None:
            storage_root = self._owned_root = tempfile.mkdtemp(
                prefix="repro-cluster-"
            )
        root = pathlib.Path(storage_root)
        return [
            ShardNode(
                shard_id,
                storage_root=root / str(shard_id),
                service_kwargs=service_kwargs,
                handoff_tuples=handoff_tuples,
                tracer=self.tracer if self.tracer.enabled else None,
                clock=clock,
            )
            for shard_id in shards
        ]

    # -- lifecycle ------------------------------------------------------

    @property
    def nodes(self) -> List[ShardNode]:
        return list(self._nodes)

    def node(self, shard_id: str) -> ShardNode:
        """Look up a shard node by id; raises on an unknown id."""
        for node in self._nodes:
            if node.shard_id == str(shard_id):
                return node
        raise ConfigurationError(f"no shard {shard_id!r} in cluster")

    def start(self) -> "ShardRouter":
        """Start every shard node; returns self for chaining."""
        for node in self._nodes:
            node.start()
        self._started = True
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop every shard node (killed shards are already down) and
        remove a storage root the router created itself — columns served
        from a spill handoff are readable until then."""
        for node in self._nodes:
            node.stop(timeout)
        self._started = False
        if self._owned_root is not None:
            shutil.rmtree(self._owned_root, ignore_errors=True)

    def kill_shard(self, shard_id: str) -> None:
        """Crash one shard (drains in-flight, refuses new work)."""
        self.node(shard_id).kill()

    def __enter__(self) -> "ShardRouter":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- observations ---------------------------------------------------

    def observe_plan(self, plan) -> None:
        """Feed an :class:`~repro.ops.distributed.ExchangePlan`'s skew
        metrics into the placement policy (no-op without one)."""
        if self.placement is not None:
            self.placement.observe_plan(plan)

    # -- the data plane -------------------------------------------------

    def partition(
        self,
        relation: "Relation | np.ndarray",
        payloads: Optional[np.ndarray] = None,
        config: Optional[PartitionerConfig] = None,
        on_overflow: OverflowPolicy = "raise",
        timeout: Optional[float] = None,
    ) -> ClusterResponse:
        """Partition through the cluster; single-node semantics.

        Mirrors :meth:`FpgaPartitioner.partition` including PAD
        overflow policies; the returned ``output`` is byte-identical to
        the single-node result.  Shard failures and rejections are
        absorbed by failover and handoff; only a cluster with no
        healthy shard left returns ``status=FAILED``.
        """
        if not self._started:
            raise ReproError("router is not running (use start() or `with`)")
        cfg = config or PartitionerConfig()
        keys, pays = extract_columns(cfg, relation, payloads)
        n = int(keys.shape[0])
        self.stats["requests"] += 1
        with self.tracer.span(
            "cluster.partition",
            tuples=n,
            partitions=cfg.num_partitions,
            mode=cfg.mode_label,
            shards=len(self._nodes),
        ) as root:
            response = self._partition_traced(
                cfg, keys, pays, n, on_overflow, timeout
            )
            root.set_attributes(
                status=response.status.value,
                failovers=response.failovers,
                handoffs=response.handoffs,
                degraded=response.degraded,
            )
        if response.ok:
            self.stats["completed"] += 1
        else:
            self.stats["failed"] += 1
        self.stats["failovers"] += response.failovers
        self.stats["handoffs"] += response.handoffs
        if response.degraded:
            self.stats["degraded"] += 1
        return response

    def _partition_traced(
        self,
        cfg: PartitionerConfig,
        keys: np.ndarray,
        pays: np.ndarray,
        n: int,
        on_overflow: OverflowPolicy,
        timeout: Optional[float],
    ) -> ClusterResponse:
        P = cfg.num_partitions

        # 1. Global accounting pass — the same fused kernel the
        # single-node path runs, so counts and lane matrix are exact.
        with self.tracer.span("cluster.route", tuples=n, partitions=P):
            parts, _, lane_counts = kernels.hash_histogram(
                keys, P, cfg.uses_hash, lanes=cfg.num_lanes
            )

            # 2. Layout and PAD overflow policy — settled globally
            # BEFORE routing, like the hardware checks before scattering.
            layout = Accounting(cfg, lane_counts).finalize(on_overflow)
            if layout.overflow is not None:
                # The paper's software fallback aborts the accelerator
                # path entirely; the cluster mirrors that by running the
                # same local CPU partitioner a single node would.
                from repro.cpu.partitioner import CpuPartitioner

                cpu_out = CpuPartitioner.matching(cfg).partition(keys, pays)
                cpu_out.fell_back_to_cpu = True
                return ClusterResponse(
                    status=RequestStatus.OK,
                    output=cpu_out,
                    backends=("cpu-local",),
                    degraded=True,
                    degrade_reasons=("pad-overflow-cpu",),
                )
            counts = layout.counts

            # 3. Placement: primaries from the ring, hot partitions
            # spread over their replica sets; partitions whose chosen
            # shard is unhealthy move to their next healthy replica
            # before anything is scattered.
            if self.placement is not None:
                self.placement.observe_keys(keys)
                if self.optimizer is not None:
                    # the optimizer's sketch-hot set feeds the adaptive
                    # replication degree (see observe_profile)
                    from repro.optimize.profile import WorkloadProfile

                    self.placement.observe_profile(
                        WorkloadProfile.from_keys(
                            keys, tuple_bytes=cfg.tuple_bytes
                        ),
                        num_partitions=cfg.num_partitions,
                    )
            banned = {
                i
                for i, node in enumerate(self._nodes)
                if not node.healthy
            }
            owner, plan = self._place(counts, cfg, banned)
            if owner is None:
                return ClusterResponse(
                    status=RequestStatus.FAILED,
                    error="no healthy shard in the cluster",
                )

            # 4. Stable scatter to shards: each shard's slice holds its
            # partitions' tuples in input order.
            jobs = self._scatter_jobs(keys, pays, parts, counts, owner)

        # 5. Submit / failover / handoff rounds.
        try:
            (
                key_sources,
                pay_sources,
                serving,
                failovers,
                handoffs,
                backends,
                reasons,
            ) = self._drive_jobs(cfg, jobs, banned, timeout)
        except _RequestFailed as exc:
            return ClusterResponse(
                status=RequestStatus.FAILED,
                failovers=0,
                error=str(exc),
            )

        # 6. Assemble: lazy columns under the global layout.
        with self.tracer.span("cluster.assemble", partitions=P):
            output = PartitionedOutput.from_layout(
                layout,
                _serving_column(key_sources),
                _serving_column(pay_sources),
                produced_by="cluster",
            )
        return ClusterResponse(
            status=RequestStatus.OK,
            output=output,
            shard_of_partition=serving,
            replicated_partitions=(
                plan.replicated_partitions if plan is not None else 0
            ),
            moved_partitions=(
                plan.moved_partitions if plan is not None else 0
            ),
            failovers=failovers,
            handoffs=handoffs,
            backends=tuple(sorted(backends)),
            degraded=bool(reasons),
            degrade_reasons=tuple(sorted(set(reasons))),
        )

    # -- placement + scatter --------------------------------------------

    def _place(
        self,
        counts: np.ndarray,
        cfg: PartitionerConfig,
        banned: set,
    ):
        """(owner array, placement plan) with unhealthy shards routed
        around; owner is None when nothing is healthy."""
        P = len(counts)
        if len(banned) >= len(self._nodes):
            return None, None
        if self.placement is not None:
            plan = self.placement.place(counts, self.ring, cfg.uses_hash)
            owner = plan.owner.copy()
        else:
            plan = None
            owner = self.ring.owners(P).copy()
        if banned:
            for p in np.nonzero(np.isin(owner, list(banned)))[0]:
                owner[p] = self._next_healthy(int(p), P, banned)
        return owner, plan

    def _next_healthy(
        self, partition: int, num_partitions: int, banned: set
    ) -> int:
        for shard in self.ring.preference(partition, num_partitions):
            if shard not in banned and self._nodes[shard].healthy:
                return shard
        raise _RequestFailed(
            f"no healthy shard left for partition {partition}"
        )

    def _scatter_jobs(
        self,
        keys: np.ndarray,
        pays: np.ndarray,
        parts: np.ndarray,
        counts: np.ndarray,
        owner: np.ndarray,
    ) -> List[_Job]:
        """One stable scatter, shard index as the partition key."""
        num_shards = len(self._nodes)
        shard_of_tuple = owner[parts]
        shard_counts = np.bincount(
            owner, weights=counts.astype(np.float64), minlength=num_shards
        ).astype(np.int64)
        dest_base = np.zeros(num_shards, dtype=np.int64)
        np.cumsum(shard_counts[:-1], out=dest_base[1:])
        n = int(keys.shape[0])
        routed_keys = np.empty(n, dtype=np.uint32)
        routed_pays = np.empty(n, dtype=np.uint32)
        kernels.stable_scatter(
            keys, pays, shard_of_tuple, dest_base, num_shards,
            routed_keys, routed_pays,
        )
        bounds = np.zeros(num_shards + 1, dtype=np.int64)
        np.cumsum(shard_counts, out=bounds[1:])
        jobs = []
        for s in range(num_shards):
            if shard_counts[s] == 0:
                continue
            partitions = np.nonzero((owner == s) & (counts > 0))[0]
            jobs.append(
                _Job(
                    shard=s,
                    partitions=partitions,
                    keys=routed_keys[bounds[s]:bounds[s + 1]],
                    payloads=routed_pays[bounds[s]:bounds[s + 1]],
                )
            )
        return jobs

    def _reroute(self, job: _Job, cfg: PartitionerConfig, banned: set):
        """Re-scatter a failed job's slice to next-preference shards."""
        P = cfg.num_partitions
        mapping = np.zeros(P, dtype=np.int64)
        for p in job.partitions:
            mapping[int(p)] = self._next_healthy(int(p), P, banned)
        slice_parts = kernels.hash_only(job.keys, P, cfg.uses_hash)
        slice_counts = np.bincount(slice_parts, minlength=P).astype(
            np.int64
        )
        return self._scatter_jobs(
            job.keys, job.payloads, slice_parts, slice_counts, mapping
        )

    # -- the submit / failover / handoff loop ---------------------------

    def _drive_jobs(
        self,
        cfg: PartitionerConfig,
        jobs: List[_Job],
        banned: set,
        timeout: Optional[float],
    ):
        P = cfg.num_partitions
        request_cfg = piece_config(cfg)
        key_sources: List = [None] * P
        pay_sources: List = [None] * P
        serving: List[Optional[str]] = [None] * P
        failovers = 0
        handoffs = 0
        backends: set = set()
        reasons: List[str] = []
        queue = list(jobs)
        wait_s = timeout if timeout is not None else self.request_timeout_s
        # each failure bans a shard, so the loop is bounded; the extra
        # headroom covers handoff-instead-of-ban rounds
        for _ in range(2 * len(self._nodes) + 2):
            if not queue:
                break
            inflight: List[Tuple[_Job, object]] = []
            retry: List[_Job] = []
            for job in queue:
                node = self._nodes[job.shard]
                if job.shard in banned or not node.healthy:
                    banned.add(job.shard)
                    failovers += 1
                    retry.extend(self._reroute(job, cfg, banned))
                    continue
                if (
                    node.handoff_tuples is not None
                    and job.tuples >= node.handoff_tuples
                ):
                    peer = self._pick_peer(job.shard, banned)
                    if peer is not None:
                        handoffs += 1
                        self._apply_handoff(
                            job, node, peer, request_cfg,
                            key_sources, pay_sources, serving,
                        )
                        backends.add("handoff")
                        continue
                try:
                    ticket = node.submit(
                        PartitionRequest(
                            relation=job.keys,
                            payloads=job.payloads,
                            config=request_cfg,
                        )
                    )
                except ReproError:
                    banned.add(job.shard)
                    failovers += 1
                    retry.extend(self._reroute(job, cfg, banned))
                    continue
                inflight.append((job, ticket))
            for job, ticket in inflight:
                node = self._nodes[job.shard]
                try:
                    resp = ticket.result(wait_s)
                except TimeoutError:
                    node.breaker.record_failure()
                    node.stats.failures += 1
                    banned.add(job.shard)
                    failovers += 1
                    retry.extend(self._reroute(job, cfg, banned))
                    continue
                if resp.ok:
                    node.breaker.record_success()
                    backends.add(resp.backend or "fpga")
                    if resp.degraded and resp.degrade_reason:
                        reasons.append(
                            f"{node.shard_id}:{resp.degrade_reason}"
                        )
                    for p in job.partitions:
                        p = int(p)
                        key_sources[p] = resp.output.partition_keys
                        pay_sources[p] = resp.output.partition_payloads
                        serving[p] = node.shard_id
                    continue
                if resp.status is RequestStatus.REJECTED:
                    # Saturated, not broken: borrow a peer's memory
                    # (spill handoff) before shedding or rerouting.
                    node.stats.rejections += 1
                    peer = self._pick_peer(job.shard, banned)
                    if peer is not None:
                        handoffs += 1
                        self._apply_handoff(
                            job, node, peer, request_cfg,
                            key_sources, pay_sources, serving,
                        )
                        backends.add("handoff")
                        reasons.append(f"{node.shard_id}:handoff")
                        continue
                node.breaker.record_failure()
                node.stats.failures += 1
                banned.add(job.shard)
                failovers += 1
                retry.extend(self._reroute(job, cfg, banned))
            queue = retry
            for job in retry:
                self._nodes[job.shard].stats.failovers_in += 1
        if queue:
            raise _RequestFailed(
                "routing did not converge (shards kept failing)"
            )
        return (
            key_sources, pay_sources, serving,
            failovers, handoffs, backends, reasons,
        )

    def _pick_peer(self, shard: int, banned: set) -> Optional[ShardNode]:
        """Next alive shard after ``shard`` in ring id order."""
        num = len(self._nodes)
        for step in range(1, num):
            candidate = (shard + step) % num
            node = self._nodes[candidate]
            if candidate not in banned and node.healthy:
                return node
        return None

    def _apply_handoff(
        self,
        job: _Job,
        donor: ShardNode,
        peer: ShardNode,
        request_cfg: PartitionerConfig,
        key_sources: List,
        pay_sources: List,
        serving: List,
    ) -> None:
        with self.tracer.span(
            "cluster.handoff",
            donor=donor.shard_id,
            peer=peer.shard_id,
            tuples=job.tuples,
        ):
            result = self.handoff.execute(
                donor, peer, job.keys, job.payloads, request_cfg
            )
        for p in job.partitions:
            p = int(p)
            key_sources[p] = result.partition_keys
            pay_sources[p] = result.partition_payloads
            serving[p] = f"{peer.shard_id} (handoff from {donor.shard_id})"

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """Router counters plus every shard's metrics snapshot."""
        return {
            "router": dict(self.stats),
            "ring": {
                "shards": [str(s) for s in self.ring.shard_ids],
                "virtual_nodes": self.ring.virtual_nodes,
                "seed": self.ring.seed,
            },
            "shards": {
                node.shard_id: node.snapshot() for node in self._nodes
            },
        }

    def prometheus(self) -> str:
        """One exposition page for the whole cluster: every shard's
        series labelled ``shard="<id>"``, router counters unlabelled."""
        lines = []
        for counter, value in sorted(self.stats.items()):
            name = f"repro_cluster_{counter}_total"
            lines.append(f"# HELP {name} Router counter '{counter}'.")
            lines.append(f"# TYPE {name} counter")
            lines.append(f"{name} {value}")
        pages = ["\n".join(lines) + "\n"] if lines else []
        pages.extend(node.prometheus() for node in self._nodes)
        return "".join(pages)
