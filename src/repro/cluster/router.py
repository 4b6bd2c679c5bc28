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

* **Routing is by partition, with a stable scatter.**  The router's
  global pass runs on its own thread
  :class:`~repro.exec.engine.ExecutionEngine`: one fused
  :func:`repro.kernels.hash_histogram` call per engine morsel (the
  kernel the single-node path uses), so it knows every tuple's
  partition and the exact global histogram before anything moves.
  That histogram is also the only placement signal:
  :func:`~repro.cluster.placement.place` spreads the partitions that
  are hot in *this* request over their replica shards and leaves the
  rest on their ring owner, so placement depends on the request alone.
  Then one grouped stable scatter per morsel routes each tuple through
  the partition → shard map inside the kernel — no per-tuple shard
  column — so each shard receives its partitions' tuples in input
  order, as one contiguous slice.
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

from repro.cluster.handoff import DEFAULT_HANDOFF_BYTES, SpillHandoff
from repro.cluster.node import ShardNode
from repro.cluster.placement import PlacementPlan, place
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
    piece_lanes,
)
from repro.errors import ConfigurationError, ReproError
from repro.exec.engine import ExecutionEngine, PartitionTask
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
        replicas: replication degree R — each request's hot partitions
            may run on any of their first R ring-preference shards
            (:func:`~repro.cluster.placement.place`); ``1`` is plain
            consistent hashing, the ring owners only.
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
        service_kwargs: Optional[dict] = None,
        handoff_tuples: Optional[int] = None,
        handoff_bytes_in_memory: int = DEFAULT_HANDOFF_BYTES,
        storage_root=None,
        request_timeout_s: float = 30.0,
        tracer=None,
        clock=time.monotonic,
    ):
        self.tracer = resolve_tracer(tracer)
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
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.replicas = int(replicas)
        self.handoff = SpillHandoff(
            bytes_in_memory=handoff_bytes_in_memory,
            tracer=tracer,
        )
        #: runs the routing passes on every core; its pool starts on
        #: first use and :meth:`stop` shuts it down
        self._engine = ExecutionEngine(kind="thread", tracer=self.tracer)
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
        """Stop every shard node (killed shards are already down), shut
        the routing pool down and remove a storage root the router
        created itself — columns served from a spill handoff are
        readable until then.  Idempotent."""
        for node in self._nodes:
            node.stop(timeout)
        self._engine.close()
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

    # -- the data plane -------------------------------------------------

    def partition(
        self,
        relation: "Relation | np.ndarray",
        payloads: Optional[np.ndarray] = None,
        config: Optional[PartitionerConfig] = None,
        on_overflow: OverflowPolicy = "raise",
        timeout: Optional[float] = None,
        offset: Optional[int] = None,
    ) -> ClusterResponse:
        """Partition through the cluster; single-node semantics.

        Mirrors :meth:`FpgaPartitioner.partition` including PAD
        overflow policies; the returned ``output`` is byte-identical to
        the single-node result.  Shard failures and rejections are
        absorbed by failover and handoff; only a cluster with no
        healthy shard left returns ``status=FAILED``.  ``offset`` makes
        the request a piece request, as
        :attr:`PartitionRequest.offset <repro.service.service.PartitionRequest.offset>`
        does: generated ids from ``offset`` and the output's
        ``lane_counts`` — the routing pass's lane matrix, relabelled by
        :func:`~repro.core.pieces.piece_lanes`.
        """
        if not self._started:
            raise ReproError("router is not running (use start() or `with`)")
        cfg = config or PartitionerConfig()
        keys, pays = extract_columns(cfg, relation, payloads, offset)
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
                cfg, keys, pays, n, on_overflow, timeout, offset
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
        offset: Optional[int],
    ) -> ClusterResponse:
        P = cfg.num_partitions

        # 1. Global accounting pass on the engine's morsels — the same
        # fused kernel the single-node path runs, so counts and lane
        # matrix are exact.
        with self.tracer.span("cluster.route", tuples=n, partitions=P):
            with self._engine.begin_partition(
                keys, pays, P, cfg.uses_hash, lanes=cfg.num_lanes
            ) as task:
                lane_counts = (
                    None if offset is None
                    else piece_lanes(task.lane_counts, offset)
                )
                # 2. Layout and PAD overflow policy — settled globally
                # BEFORE routing, like the hardware checks before
                # scattering.
                layout = Accounting(cfg, task.lane_counts).finalize(
                    on_overflow
                )
                if layout.overflow is not None:
                    # The paper's software fallback aborts the
                    # accelerator path entirely; the cluster mirrors
                    # that by running the same local CPU partitioner a
                    # single node would.
                    from repro.cpu.partitioner import CpuPartitioner

                    cpu_out = CpuPartitioner.matching(cfg).partition(
                        keys, pays
                    )
                    cpu_out.fell_back_to_cpu = True
                    cpu_out.lane_counts = lane_counts
                    return ClusterResponse(
                        status=RequestStatus.OK,
                        output=cpu_out,
                        backends=("cpu-local",),
                        degraded=True,
                        degrade_reasons=("pad-overflow-cpu",),
                    )

                # 3. Placement: primaries from the ring, this request's
                # hot partitions spread over their replica sets;
                # partitions whose chosen shard is unhealthy move to
                # their next healthy replica before anything is
                # scattered.
                banned = {
                    i
                    for i, node in enumerate(self._nodes)
                    if not node.healthy
                }
                plan = self._place(layout.counts, banned)
                if plan is None:
                    return ClusterResponse(
                        status=RequestStatus.FAILED,
                        error="no healthy shard in the cluster",
                    )

                # 4. One grouped stable scatter per morsel: each
                # shard's slice holds its partitions' tuples in input
                # order.
                jobs = self._route(task, plan.owner)

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
            output.lane_counts = lane_counts
        return ClusterResponse(
            status=RequestStatus.OK,
            output=output,
            shard_of_partition=serving,
            replicated_partitions=plan.replicated_partitions,
            failovers=failovers,
            handoffs=handoffs,
            backends=tuple(sorted(backends)),
            degraded=bool(reasons),
            degrade_reasons=tuple(sorted(set(reasons))),
        )

    # -- placement + scatter --------------------------------------------

    def _place(
        self, counts: np.ndarray, banned: set
    ) -> Optional[PlacementPlan]:
        """This request's placement with unhealthy shards routed
        around; None when nothing is healthy."""
        P = len(counts)
        if len(banned) >= len(self._nodes):
            return None
        plan = place(counts, self.ring, self.replicas)
        if banned:
            owner = plan.owner
            for p in np.nonzero(np.isin(owner, list(banned)))[0]:
                owner[p] = self._next_healthy(int(p), P, banned)
        return plan

    def _next_healthy(
        self, partition: int, num_partitions: int, banned: set
    ) -> int:
        for shard in self.ring.preference(partition, num_partitions):
            if shard not in banned and self._nodes[shard].healthy:
                return shard
        raise _RequestFailed(
            f"no healthy shard left for partition {partition}"
        )

    def _route(self, task: PartitionTask, owner: np.ndarray) -> List[_Job]:
        """Scatter ``task`` by shard (``owner`` maps partition → shard)
        and cut one job per shard that receives tuples; the jobs' columns
        are views of its contiguous group slice."""
        routed_keys, routed_pays, bounds = task.scatter(groups=owner)
        nonempty = task.counts > 0
        jobs = []
        for s in range(bounds.shape[0] - 1):
            lo, hi = bounds[s], bounds[s + 1]
            if lo == hi:
                continue
            jobs.append(
                _Job(
                    shard=s,
                    partitions=np.nonzero((owner == s) & nonempty)[0],
                    keys=routed_keys[lo:hi],
                    payloads=routed_pays[lo:hi],
                )
            )
        return jobs

    def _reroute(self, job: _Job, cfg: PartitionerConfig, banned: set):
        """Re-scatter a failed job's slice to next-preference shards."""
        P = cfg.num_partitions
        mapping = np.zeros(P, dtype=np.int64)
        for p in job.partitions:
            mapping[int(p)] = self._next_healthy(int(p), P, banned)
        with self._engine.begin_partition(
            job.keys, job.payloads, P, cfg.uses_hash
        ) as task:
            return self._route(task, mapping)

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
