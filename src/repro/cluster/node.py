"""One shard of the partition cluster: a service plus its health view.

A :class:`ShardNode` hosts a full
:class:`~repro.service.service.PartitionService` (its own admission
queue, batching scheduler, degradation policy and dispatcher thread) —
the same object a single-node deployment runs — and adds what the
router needs around it:

* a **router-side circuit breaker**
  (:class:`~repro.service.degradation.CircuitBreaker`): the shard's
  *internal* breaker guards its FPGA; this one guards the shard itself.
  Failed or timed-out shard calls trip it, and an OPEN breaker makes
  the router route around the shard until the cooldown's half-open
  probe succeeds.
* a **storage root** on which peers may land spill-handoff stores and
  runs (see :mod:`repro.cluster.handoff`).
* **shard-local counters** (requests, tuples, failovers, handoffs) the
  router aggregates into per-shard Prometheus series.
* a :meth:`kill` switch modelling a crashed shard: in-flight work
  drains, every later submit raises — which is exactly the failure the
  router's failover path must absorb.
"""

from __future__ import annotations

import dataclasses
import pathlib
import shutil
import tempfile
import time
from typing import Optional

from repro.errors import ReproError
from repro.service.degradation import CircuitBreaker
from repro.service.service import PartitionRequest, PartitionService

__all__ = ["ShardNode", "ShardStats"]


@dataclasses.dataclass
class ShardStats:
    """Router-visible shard counters (all monotonic)."""

    requests: int = 0
    tuples: int = 0
    failures: int = 0
    rejections: int = 0
    failovers_in: int = 0
    handoffs_out: int = 0
    handoffs_in: int = 0

    def to_dict(self) -> dict:
        """Plain-dict view of the counters (snapshot/export friendly)."""
        return dataclasses.asdict(self)


class ShardNode:
    """An in-process cluster shard: one service, one identity.

    Args:
        shard_id: stable identifier; it is the shard's position on the
            consistent-hash ring and its Prometheus ``shard`` label.
        storage_root: directory for this shard's on-disk state
            (spill-handoff stores/runs land here); a temporary
            directory is created if omitted and removed by :meth:`stop`.
        service_kwargs: forwarded to :class:`PartitionService` (policy,
            queue bounds, batching, spill knobs ...).
        breaker: router-side circuit breaker; a short-cooldown default
            is built if omitted (shard failover should react in
            milliseconds, not the FPGA breaker's quarter second).
        handoff_tuples: memory-pressure threshold — the router hands a
            routed slice of at least this many tuples off to a peer's
            storage instead of submitting it here.  ``None`` disables
            pressure-triggered handoff for this shard.
        tracer: optional tracer, forwarded to the service.
        clock: injectable clock shared with the breaker.
    """

    def __init__(
        self,
        shard_id: str,
        storage_root=None,
        service_kwargs: Optional[dict] = None,
        breaker: Optional[CircuitBreaker] = None,
        handoff_tuples: Optional[int] = None,
        tracer=None,
        clock=time.monotonic,
    ):
        self.shard_id = str(shard_id)
        self._owns_storage = storage_root is None
        if storage_root is None:
            storage_root = tempfile.mkdtemp(prefix=f"repro-shard-{shard_id}-")
        self.storage_root = pathlib.Path(storage_root)
        self.storage_root.mkdir(parents=True, exist_ok=True)
        kwargs = dict(service_kwargs or {})
        kwargs.setdefault("tracer", tracer)
        kwargs.setdefault("clock", clock)
        self.service = PartitionService(**kwargs)
        self.breaker = breaker or CircuitBreaker(
            failure_threshold=2, cooldown_s=0.05, clock=clock
        )
        self.handoff_tuples = handoff_tuples
        self.stats = ShardStats()
        self._started = False
        self._killed = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "ShardNode":
        """Start the shard's service; a killed shard stays down."""
        if not self._killed:
            self.service.start()
            self._started = True
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Drain in-flight work, stop the shard's service and remove a
        storage root the node created itself."""
        self.service.stop(timeout)
        self._started = False
        if self._owns_storage:
            shutil.rmtree(self.storage_root, ignore_errors=True)

    def kill(self, timeout: Optional[float] = 30.0) -> None:
        """Take the shard down as a crash: drain in-flight work, then
        refuse everything.  (A real crash would also drop in-flight
        requests; those surface as FAILED responses, which the router
        handles the same way.)"""
        self._killed = True
        self.service.stop(timeout)
        self._started = False

    # -- health ---------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self._started and not self._killed

    @property
    def healthy(self) -> bool:
        """Routable right now: alive and breaker not OPEN.

        Half-open counts as healthy — the next routed request *is* the
        probe, and its outcome closes or re-opens the breaker.
        """
        return self.alive and self.breaker.state != CircuitBreaker.OPEN

    # -- work -----------------------------------------------------------

    def submit(self, request: PartitionRequest):
        """Submit to this shard's service; raises
        :class:`~repro.errors.ReproError` when the shard is down."""
        if not self.alive:
            raise ReproError(f"shard {self.shard_id} is down")
        self.stats.requests += 1
        self.stats.tuples += request.num_tuples
        return self.service.submit(request)

    # -- reporting ------------------------------------------------------

    def snapshot(self) -> dict:
        """Service metrics snapshot plus shard-level state."""
        snap = self.service.metrics.to_dict()
        snap["shard"] = {
            "id": self.shard_id,
            "alive": self.alive,
            "breaker": self.breaker.state,
            **self.stats.to_dict(),
        }
        return snap

    def prometheus(self) -> str:
        """This shard's exposition, every series labelled
        ``shard="<id>"`` so one scrape page covers the whole cluster."""
        return self.service.metrics.to_prometheus(
            labels={"shard": self.shard_id}
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "alive" if self.alive else "down"
        return f"<ShardNode {self.shard_id} {state} {self.breaker.state}>"
