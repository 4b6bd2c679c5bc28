"""The partition service façade: requests in, tickets out.

:class:`PartitionService` turns the library's one-shot partitioners
into a long-lived serving tier shaped like an inference server:

* Clients call :meth:`PartitionService.submit` from any thread and get
  a :class:`PartitionTicket` immediately — admission control answers
  *now* (admitted, or rejected with a ``retry_after`` hint), the work
  itself resolves asynchronously.
* A single dispatcher thread pulls priority-ordered work from the
  :class:`~repro.service.queue.AdmissionQueue`, forms batches with the
  :class:`~repro.service.scheduler.BatchingScheduler`, and executes
  them: batches of any length, one included, through
  :meth:`~repro.core.partitioner.FpgaPartitioner.partition_many`,
  oversized (``split``) requests solo through the morsel engine.
* Every batch goes one way: deadline filter, one routing function
  picks the executor (fpga, cpu, spill or plan), the executor returns
  one outcome, one resolver turns it into responses, counters, spans.
* A :class:`~repro.service.degradation.BackendFault` is the
  *backend's* error: bounded exponential backoff, a breaker failure,
  then the CPU (SWWC) backend, where saturation and an open circuit go
  straight; every downgrade is recorded on the response and in
  :class:`~repro.service.metrics.ServiceMetrics`.  Any other exception
  is the *request's* error: that ticket resolves ``FAILED`` with its
  ``error_type``, nothing is retried, the breaker is not charged — and
  no exception leaves the dispatch loop.

A single dispatcher is deliberate: the stack is sized for two cores
(``nproc`` = 2 in ``benchmarks/stack/README.md``), one of which the
clients — or the gateway's event loop — occupy, so service throughput
comes from *coalescing* (one kernel call, hence one GIL hand-off, per
batch), not from dispatcher parallelism — the same amortisation
argument as the paper's deeply pipelined circuit, transplanted to the
serving layer.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import logging
import pathlib
import shutil
import tempfile
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.modes import OutputMode, PartitionerConfig
from repro.core.partitioner import (
    FpgaPartitioner,
    OverflowPolicy,
    PartitionedOutput,
)
from repro.core.pieces import run_piece
from repro.cpu.partitioner import CpuPartitioner
from repro.errors import ReproError
from repro.obs.tracing import resolve_tracer
from repro.service.degradation import BackendFault, DegradationPolicy
from repro.service.metrics import ServiceMetrics
from repro.service.queue import AdmissionQueue, QueueFullError
from repro.service.scheduler import Batch, BatchingScheduler, request_signature
from repro.workloads.relations import Relation

_LOG = logging.getLogger(__name__)


class ServiceDrainingError(ReproError):
    """Submits are refused because the service is draining.

    Raised by :meth:`PartitionService.submit`/:meth:`submit_plan` once
    :meth:`PartitionService.drain` has begun: the service is completing
    already-admitted work but accepts nothing new.  Distinct from the
    generic not-running error so network front-ends (the gateway) can
    surface a structured "draining" outcome instead of a hard failure.
    """


class Priority(enum.IntEnum):
    """Admission-queue priority; higher dequeues first."""

    LOW = 0
    NORMAL = 1
    HIGH = 2


class RequestStatus(enum.Enum):
    """Terminal state of a partition request."""

    OK = "ok"
    REJECTED = "rejected"
    TIMED_OUT = "timed-out"
    FAILED = "failed"


@dataclasses.dataclass
class PartitionRequest:
    """One client request: a relation plus how to partition it.

    Args:
        relation: a :class:`~repro.workloads.relations.Relation` or a
            bare uint32 key array.
        payloads: payload column when ``relation`` is a bare array.
        config: partitioner configuration; requests coalesce only with
            identical configs (see
            :func:`~repro.service.scheduler.request_signature`).
        priority: admission priority (higher first).
        deadline_s: optional per-request deadline, seconds from submit;
            expired requests resolve ``TIMED_OUT`` instead of running.
        on_overflow: PAD-mode overflow policy, forwarded to the kernel.
        offset: the global position of the relation's first tuple when
            it is a *piece* of a longer run (a gateway chunk): its
            generated record ids are then ``offset + i``, and the
            response's output carries ``lane_counts``, the piece's
            ``(partition, lane)`` histogram with lanes counted from
            ``offset`` — whichever executor runs it (see
            :func:`~repro.core.pieces.run_piece`).  Data, not a knob:
            it never splits a batch.  ``None`` (default) is a whole
            run.
    """

    relation: "Relation | np.ndarray"
    payloads: Optional[np.ndarray] = None
    config: PartitionerConfig = dataclasses.field(
        default_factory=PartitionerConfig
    )
    priority: int = Priority.NORMAL
    deadline_s: Optional[float] = None
    on_overflow: OverflowPolicy = "raise"
    offset: Optional[int] = None

    @property
    def num_tuples(self) -> int:
        if isinstance(self.relation, Relation):
            return self.relation.num_tuples
        return int(np.asarray(self.relation).shape[0])


@dataclasses.dataclass
class PlanRequest:
    """A whole-query request: a logical plan instead of one relation.

    The service executes the plan through the fused pipeline compiler
    (:func:`repro.plan.execute_plan`) — partition → build/probe →
    aggregate in one morsel pass — falling back to the staged operators
    (and marking the response degraded) if the fused pass errors.
    Admission control, priorities and deadlines apply to the *whole
    query*: ``num_tuples`` counts every scan, so a two-relation join
    plan is admitted against the same queue bounds as two partition
    requests of the same size.

    Args:
        plan: a :class:`repro.plan.LogicalPlan` (see the builders in
            :mod:`repro.plan.nodes`).
        priority / deadline_s: as on :class:`PartitionRequest`.
        fused: request the one-pass executor (default); ``False`` runs
            the staged reference pipeline.
    """

    plan: object
    priority: int = Priority.NORMAL
    deadline_s: Optional[float] = None
    fused: bool = True

    @property
    def num_tuples(self) -> int:
        return int(sum(scan.num_tuples for scan in self.plan.scans))


@dataclasses.dataclass
class PartitionResponse:
    """Terminal result delivered through a :class:`PartitionTicket`.

    ``spill`` is set when the request ran out-of-core: a
    :class:`~repro.storage.spill.PartitionSpill` handle whose run
    files back the (lazily read) ``output``.  The files belong
    to the caller from then on — drop them with ``spill.cleanup()``
    when done.
    """

    request_id: int
    status: RequestStatus
    output: Optional[PartitionedOutput] = None
    backend: Optional[str] = None  # "fpga"|"cpu"|"spill"|"fused"|"staged"
    spill: Optional[object] = None  # PartitionSpill when backend=="spill"
    result: Optional[object] = None  # QueryResult for PlanRequests
    degraded: bool = False
    degrade_reason: Optional[str] = None
    retry_after: Optional[float] = None  # set on REJECTED
    attempts: int = 0
    batch_size: int = 0
    queue_wait_s: float = 0.0
    execute_s: float = 0.0
    total_s: float = 0.0
    error: Optional[str] = None  # "<Type>: <message>" on FAILED
    error_type: Optional[str] = None  # the exception's class name

    @property
    def ok(self) -> bool:
        return self.status is RequestStatus.OK


class PartitionTicket:
    """Client-side handle for an in-flight request: a one-shot latch,
    its lock acquired at creation and released by the resolution."""

    __slots__ = ("request_id", "_latch", "_response", "_callbacks", "_metrics")

    def __init__(
        self, request_id: int, metrics: Optional[ServiceMetrics] = None
    ):
        self.request_id = request_id
        self._latch = threading.Lock()
        self._latch.acquire()
        self._response: Optional[PartitionResponse] = None
        self._callbacks: List[List[Callable[[PartitionResponse], None]]] = []
        self._metrics = metrics

    def done(self) -> bool:
        """True once the request has resolved (any terminal status)."""
        return self._response is not None

    def result(self, timeout: Optional[float] = None) -> PartitionResponse:
        """Block until resolved; raises :class:`TimeoutError` if the
        client-side wait (not the request deadline) expires first."""
        if self._response is None:
            if not self._latch.acquire(
                timeout=-1 if timeout is None else max(timeout, 0)
            ):
                raise TimeoutError(
                    f"request {self.request_id} not resolved within {timeout}s"
                )
            self._latch.release()
        return self._response

    def add_done_callback(
        self, fn: Callable[[PartitionResponse], None]
    ) -> None:
        """Call ``fn(response)`` once the request resolves, whatever
        its terminal status: on the resolving thread (the service's
        dispatcher, so keep it short — hand the response to your own
        thread or event loop, in registration order), or right here if
        it already has.  An exception from ``fn`` is caught, logged and
        counted (``callback_errors``), never propagated: it must not
        take the dispatcher down with it.
        """
        # whoever pops fn from its box runs it: the resolver, or this
        # thread once the ticket has resolved (list.pop is atomic)
        box = [fn]
        self._callbacks.append(box)
        if self._response is not None:
            self._run(box)

    def _run(self, box: List[Callable[[PartitionResponse], None]]) -> None:
        try:
            fn = box.pop()
        except IndexError:
            return
        try:
            fn(self._response)
        except Exception:  # noqa: BLE001 - the dispatcher must survive
            _LOG.exception(
                "done-callback of request %d raised", self.request_id
            )
            if self._metrics is not None:
                self._metrics.increment("callback_errors")

    def _resolve(self, response: PartitionResponse) -> None:
        self._response = response
        self._latch.release()
        for box in self._callbacks:  # also sees boxes added meanwhile
            self._run(box)


@dataclasses.dataclass
class _Pending:
    """Internal queue entry: request + ticket + precomputed batch key."""

    request: PartitionRequest
    ticket: PartitionTicket
    signature: Tuple
    tuples: int
    submitted_at: float
    deadline_at: Optional[float]
    #: root "request" span, opened at submit and ended at resolution
    span: Optional[object] = None
    #: optimizer decision, computed ahead of admission (None = static)
    decision: Optional[object] = None

    @property
    def force_spill(self) -> bool:
        """True when the optimizer routed this request multi-pass."""
        return self.decision is not None and self.decision.backend == "spill"


class _DeadlineExpired(ReproError):
    """The deadline passed in the queue: ``TIMED_OUT``, not ``FAILED``."""


@dataclasses.dataclass
class _Outcome:
    """What one executor call made of its entries: ``results`` holds a
    dict of :class:`PartitionResponse` fields (``output`` / ``spill`` /
    ``result``) per entry, or ``error`` the exception that ended the
    call for all of them.  Executors return the first kind and raise
    otherwise; the dispatcher wraps what they raise into the second."""

    backend: Optional[str] = None
    results: Sequence[dict] = ()
    error: Optional[Exception] = None
    degraded: bool = False
    degrade_reason: Optional[str] = None
    attempts: int = 1

    def provenance(self) -> dict:
        """The fields ``execute`` span, root span and response share."""
        return dict(
            backend=self.backend, attempts=self.attempts,
            degraded=self.degraded, degrade_reason=self.degrade_reason,
        )


def _call_many(partitioner, live):
    """One kernel call for the whole batch, a batch of one included."""
    return partitioner.partition_many(
        [entry.request.relation for entry in live],
        [entry.request.payloads for entry in live],
        on_overflow=live[0].request.on_overflow,
        offsets=[entry.request.offset for entry in live],
    )


def _each(live, run):
    """``run(entry, relation, payloads)`` per entry, under the piece
    contract for the entries that carry an offset."""
    return [
        run_piece(
            e.request.config, e.request.relation, e.request.payloads,
            e.request.offset, functools.partial(run, e),
        )
        for e in live
    ]


def _call_solo(partitioner, live):
    """``partition()`` per entry: a ``split`` request's morsel engine."""
    return _each(live, lambda e, relation, payloads: partitioner.partition(
        relation, payloads, on_overflow=e.request.on_overflow
    ))


def _call_isolated(partitioner, live):
    """Heavy hitters go to dedicated regions; should the cold keys
    overflow anyway, degrade that entry to HIST accounting rather than
    raising at the client."""
    from repro.optimize.isolation import partition_isolated

    return _each(live, lambda e, relation, payloads: partition_isolated(
        partitioner, relation, payloads,
        hot_keys=e.decision.isolate_keys,
        on_overflow=(
            "hist" if e.request.on_overflow == "raise"
            else e.request.on_overflow
        ),
    ))


class PartitionService:
    """Long-lived serving façade over the FPGA and CPU partitioners.

    Args:
        max_queue_requests / max_queue_tuples: admission bounds (see
            :class:`~repro.service.queue.AdmissionQueue`).
        max_batch_requests / max_batch_tuples / split_tuples / linger_s:
            batching knobs (see
            :class:`~repro.service.scheduler.BatchingScheduler`);
            ``max_batch_requests=1`` with ``linger_s=0`` is the naive
            one-request-at-a-time baseline the benchmark compares
            against.
        spill_tuples: requests at or above this many tuples run
            out-of-core through :mod:`repro.storage.spill` instead of
            being held in memory (or rejected): the relation is staged
            into a chunked on-disk store, streamed through the kernel
            under ``spill_bytes_in_memory``, and the response carries a
            :class:`~repro.storage.spill.PartitionSpill` handle plus a
            lazily read ``output``.  ``None`` (default)
            disables the spill path.
        spill_dir: directory for spill stores and runs (a fresh
            temporary directory per service if omitted, removed on
            :meth:`stop`/:meth:`drain` once it is empty).  Run
            directories outlive their response on purpose — the output
            *is* those files; callers drop them via
            ``response.spill.cleanup()``.
        spill_bytes_in_memory: in-memory budget for the spill path's
            buffered chunk outputs (see
            :class:`~repro.storage.spill.SpillPartitioner`).
        max_retries / retry_backoff_s / retry_backoff_cap_s: bounded
            exponential backoff for faulted FPGA calls before the CPU
            failover kicks in.
        policy: backend-health policy (faults, saturation, breaker); a
            permissive default is built if omitted.
        engine: execution-engine spec for kernel invocations (morsel
            splitting of oversized requests); ``"serial"`` by default —
            on the single-core target, parallel dispatch buys nothing.
        cpu_threads: thread count for the CPU (SWWC) failover backend.
        clock: injectable monotonic clock (tests).
        tracer: optional :class:`~repro.obs.tracing.Tracer`.  Every
            request gets a root ``request`` span from submit to
            resolution, with ``queue_wait`` / ``batch`` / ``execute`` /
            ``resolve`` child spans beneath it; the tracer is forwarded
            to the scheduler and the kernel partitioners, so scheduler
            decisions and per-kernel spans land in the same trace.  The
            service's ``clock`` should be the tracer's clock (both
            default to ``time.monotonic``) so timestamps share one
            timeline.
        optimizer: optional
            :class:`~repro.optimize.optimizer.AdaptiveOptimizer` hook,
            consulted *ahead of admission* for every request.  The
            decision joins the batch signature (requests with
            different execution plans never share a kernel pass) and
            steers execution: sketch-hot keys are isolated into
            dedicated PAD regions, doomed PAD runs go straight to
            HIST, optimizer-routed requests run on the cpu or spill
            path without counting as degradations, and observed
            execute latencies flow back via ``optimizer.observe`` to
            recalibrate its rates.  Response contents stay
            byte-identical to the static path — only layout/base
            addresses and the accounting differ.  ``None`` (default)
            is the static escape hatch: every knob keeps the
            request's configuration.
    """

    def __init__(
        self,
        max_queue_requests: int = 1024,
        max_queue_tuples: Optional[int] = None,
        max_batch_requests: int = 64,
        max_batch_tuples: int = 1 << 20,
        split_tuples: Optional[int] = None,
        spill_tuples: Optional[int] = None,
        spill_dir=None,
        spill_bytes_in_memory: int = 64 << 20,
        linger_s: float = 0.0,
        max_retries: int = 2,
        retry_backoff_s: float = 0.002,
        retry_backoff_cap_s: float = 0.05,
        policy: Optional[DegradationPolicy] = None,
        engine: Optional[str] = "serial",
        cpu_threads: int = 1,
        clock=time.monotonic,
        tracer=None,
        optimizer=None,
    ):
        if max_retries < 0:
            raise ReproError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_s < 0 or retry_backoff_cap_s < 0:
            raise ReproError("retry backoff values must be >= 0")
        self._clock = clock
        self.tracer = resolve_tracer(tracer)
        self.queue = AdmissionQueue(
            max_requests=max_queue_requests, max_tuples=max_queue_tuples
        )
        self.scheduler = BatchingScheduler(
            max_batch_requests=max_batch_requests,
            max_batch_tuples=max_batch_tuples,
            split_tuples=split_tuples,
            spill_tuples=spill_tuples,
            linger_s=linger_s,
            clock=clock,
            tracer=tracer,
        )
        self._spill_dir = spill_dir
        self._owns_spill_root = False
        self.spill_bytes_in_memory = spill_bytes_in_memory
        self.metrics = ServiceMetrics(clock=clock)
        self.policy = policy or DegradationPolicy()
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self.retry_backoff_cap_s = retry_backoff_cap_s
        self._engine_spec = engine
        self._cpu_threads = cpu_threads
        self.optimizer = optimizer
        self._fpga: Dict[Tuple, FpgaPartitioner] = {}
        self._cpu: Dict[Tuple, CpuPartitioner] = {}
        self._sequence = 0
        self._sequence_lock = threading.Lock()
        self._dispatcher: Optional[threading.Thread] = None
        self._started = False
        self._stopped = False
        self._draining = False

    # -- lifecycle ------------------------------------------------------

    def start(self) -> "PartitionService":
        """Start the dispatcher thread; idempotent."""
        if self._stopped:
            raise ReproError("service already stopped; build a new one")
        if not self._started:
            self._started = True
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop,
                name="partition-service-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
        return self

    def drain(self, timeout: Optional[float] = 30.0) -> None:
        """Graceful shutdown: refuse new work, finish admitted work.

        Three phases, in order:

        1. new :meth:`submit`/:meth:`submit_plan` calls raise
           :class:`ServiceDrainingError` immediately (a *clear* refusal
           — clients should fail over, not retry this instance);
        2. every already-admitted request runs to its normal terminal
           state (OK / TIMED_OUT / FAILED) and resolves its ticket;
        3. the dispatcher exits and the partitioner pools close.

        Idempotent, and :meth:`stop` afterwards is a no-op.  Used by
        ``repro serve`` and the gateway's SIGTERM handler.
        """
        self._draining = True
        self.stop(timeout)

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has begun refusing new work."""
        return self._draining

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop admitting, drain queued work, join the dispatcher, close
        the partitioner pools; a spill root the service created itself
        goes too once no run directory is left in it."""
        running = self._started and not self._stopped
        self._stopped = True
        # close() stops admission but leaves queued entries drainable;
        # the dispatch loop exits once the closed queue runs dry
        self.queue.close()
        if running:
            self._dispatcher.join(timeout)
        for partitioner in (*self._fpga.values(), *self._cpu.values()):
            partitioner.close()
        self._fpga.clear()
        self._cpu.clear()
        if self._owns_spill_root:
            try:
                pathlib.Path(self._spill_dir).rmdir()
            except OSError:
                # not empty: run directories the caller still owns
                pass

    def __enter__(self) -> "PartitionService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- client side ----------------------------------------------------

    def submit(
        self, request: PartitionRequest, raise_on_reject: bool = False
    ) -> PartitionTicket:
        """Admit ``request``; always returns a ticket immediately.

        A rejected request's ticket is already resolved with
        ``RequestStatus.REJECTED`` and a ``retry_after`` hint; with
        ``raise_on_reject=True`` a
        :class:`~repro.service.queue.QueueFullError` is raised instead.
        """
        self._check_running()
        decision = (
            self._decide(request) if self.optimizer is not None else None
        )
        # overflow policy joins the signature: a coalesced kernel call
        # applies one policy to the whole batch.  So does the optimizer
        # decision — requests with different execution plans (backend,
        # pad strategy, isolation set) must not share a kernel pass.
        signature = (
            request_signature(request.config)
            + (request.on_overflow,)
            + ((decision.batch_token,) if decision is not None else ())
        )
        return self._admit(request, signature, decision, raise_on_reject)

    def submit_plan(
        self, request: "PlanRequest | object", raise_on_reject: bool = False
    ) -> PartitionTicket:
        """Admit a whole-query :class:`PlanRequest`; ticket immediately.

        A bare :class:`repro.plan.LogicalPlan` is accepted and wrapped
        with default priority/deadline.  Plan requests ride the same
        admission queue and dispatcher as partition requests but never
        coalesce (each carries a unique batch signature): batching,
        deadline enforcement and degradation accounting apply to the
        query as a unit.
        """
        if not isinstance(request, PlanRequest):
            request = PlanRequest(plan=request)
        self._check_running()
        self.metrics.increment("plans_submitted")
        # unique per request: plan batches are solo by construction
        signature = ("plan", object())
        return self._admit(
            request, signature, None, raise_on_reject,
            plan=request.plan.describe(),
        )

    def _check_running(self) -> None:
        if self._draining:
            raise ServiceDrainingError(
                "service is draining; new submissions are refused "
                "(in-flight work will still complete)"
            )
        if not self._started or self._stopped:
            raise ReproError("service is not running (use start() or `with`)")

    def _admit(
        self, request, signature: Tuple, decision, raise_on_reject: bool,
        **span_attrs,
    ) -> PartitionTicket:
        """The one admission path: id, pending entry, root span, offer."""
        with self._sequence_lock:
            self._sequence += 1
            request_id = self._sequence
        ticket = PartitionTicket(request_id, self.metrics)
        now = self._clock()
        pending = _Pending(
            request=request,
            ticket=ticket,
            signature=signature,
            tuples=request.num_tuples,
            submitted_at=now,
            deadline_at=(
                now + request.deadline_s
                if request.deadline_s is not None
                else None
            ),
            decision=decision,
        )
        if self.tracer.enabled:
            span = self.tracer.start_span(
                "request",
                request_id=request_id,
                tuples=pending.tuples,
                priority=int(request.priority),
                **span_attrs,
            )
            # anchor the root span at the submit timestamp from the
            # service clock, the clock every later stage measures with
            span.start_s = now
            pending.span = span
        self.metrics.increment("submitted")
        # counted inside the queue's lock: counted afterwards, the
        # dispatcher could complete the request first and a metrics
        # reader see completed > admitted
        if not self.queue.offer(
            pending, int(request.priority), pending.tuples,
            on_admit=self._count_admitted,
        ):
            retry_after = self.queue.retry_after_hint()
            self.metrics.increment("rejected")
            if pending.span is not None:
                pending.span.set_attributes(status="rejected")
                pending.span.end(self._clock())
            if raise_on_reject:
                raise QueueFullError(len(self.queue), retry_after)
            ticket._resolve(
                PartitionResponse(
                    request_id=request_id,
                    status=RequestStatus.REJECTED,
                    retry_after=retry_after,
                )
            )
            return ticket
        self.metrics.set_gauge("queue_depth", len(self.queue))
        return ticket

    def _count_admitted(self) -> None:
        self.metrics.increment("admitted")

    def _decide(self, request: PartitionRequest):
        """Consult the optimizer for one request's execution plan.

        Planning failures fall back to the static path rather than
        failing the request — the optimizer is an accelerator, not a
        gatekeeper.
        """
        try:
            if isinstance(request.relation, Relation):
                keys = request.relation.keys
            else:
                keys = np.ascontiguousarray(
                    request.relation, dtype=np.uint32
                )
            # a reused stale "keep" on a raise-policy PAD request could
            # surface an overflow raise the optimizer exists to prevent
            # — force a fresh profile exactly there
            reuse = not (
                request.on_overflow == "raise"
                and request.config.output_mode is OutputMode.PAD
            )
            decision = self.optimizer.decide(
                keys, request.config, reuse=reuse
            )
        except Exception:  # noqa: BLE001 - static fallback by design
            return None
        self.metrics.increment("optimized")
        if decision.pad_strategy == "isolate":
            self.metrics.increment("isolated")
        elif decision.pad_strategy == "hist":
            self.metrics.increment("preempted_hist")
        return decision

    def snapshot(self) -> dict:
        """Service metrics plus the optimizer's decision/rate state."""
        snap = self.metrics.to_dict()
        if self.optimizer is not None:
            snap["optimizer"] = self.optimizer.snapshot()
        return snap

    def partition(
        self,
        relation: "Relation | np.ndarray",
        payloads: Optional[np.ndarray] = None,
        config: Optional[PartitionerConfig] = None,
        timeout: Optional[float] = None,
        **request_kwargs,
    ) -> PartitionResponse:
        """Blocking convenience wrapper: submit and wait for the result."""
        request = PartitionRequest(
            relation=relation,
            payloads=payloads,
            config=config or PartitionerConfig(),
            **request_kwargs,
        )
        return self.submit(request).result(timeout)

    # -- dispatcher -----------------------------------------------------

    def _dispatch_loop(self) -> None:
        while True:
            batches = self.scheduler.collect(self.queue, timeout=0.05)
            if not batches:
                if self.queue.closed and len(self.queue) == 0:
                    return
                continue
            self.metrics.set_gauge("queue_depth", len(self.queue))
            for batch in batches:
                try:
                    self._execute_batch(batch)
                except Exception as exc:  # noqa: BLE001 - last resort
                    # executors' errors are outcomes already; this is a
                    # bug in the dispatcher or in a hook it calls.  The
                    # loop must outlive it and no ticket may hang.
                    _LOG.exception(
                        "dispatcher: a batch of %d escaped", len(batch)
                    )
                    self.metrics.increment("dispatcher_errors")
                    self.metrics.set_gauge("inflight", 0)
                    unresolved = [
                        e for e in batch.entries if not e.ticket.done()
                    ]
                    self._resolve(unresolved, _Outcome(error=exc), 0.0)

    def _execute_batch(self, batch: Batch) -> None:
        """Deadline filter → route → execute → resolve."""
        now = self._clock()
        live: List[_Pending] = []
        expired: List[_Pending] = []
        for entry in batch.entries:
            late = entry.deadline_at is not None and now > entry.deadline_at
            (expired if late else live).append(entry)
        if expired:
            error = _DeadlineExpired("deadline expired before execution")
            self._resolve(expired, _Outcome(error=error, attempts=0), 0.0)
        if not live:
            return
        total_tuples = sum(entry.tuples for entry in live)
        self.metrics.set_gauge("inflight", total_tuples)
        self.metrics.observe_many(
            "queue_wait", [now - entry.submitted_at for entry in live]
        )
        for entry in live:
            if entry.span is not None:
                # retroactive: the wait was measured on service clocks
                self.tracer.record_span(
                    "queue_wait", entry.submitted_at, now, parent=entry.span
                )
        with self.tracer.span(
            "batch",
            requests=len(live),
            tuples=total_tuples,
            split=batch.split,
            spill=batch.spill,
        ):
            self._run(self._route(batch, live), live)
        self.metrics.set_gauge("inflight", 0)

    def _route(self, batch: Batch, live: List[_Pending]) -> Callable:
        """Pick the executor — ``live`` in, :class:`_Outcome` out — for
        one batch: the only place that looks at how the batch was formed
        (``Batch.split`` / ``Batch.spill``), what kind of request it
        holds and what the optimizer decided.  Entries of a batch share
        one signature — hence one kind and one decision — so the head
        entry speaks for everyone."""
        head = live[0]
        if isinstance(head.request, PlanRequest):
            return self._run_plan
        if batch.spill:
            return self._run_spill
        decision = head.decision
        if decision is not None and decision.backend == "cpu":
            # not a degradation: the plan says the CPU is the faster
            # backend for this batch
            self.metrics.increment("routed_cpu", len(live))
            return functools.partial(
                self._run_cpu, reason="optimizer-routed", degraded=False
            )
        if batch.split:
            self.metrics.increment("split_requests", len(live))
        strategy = decision.pad_strategy if decision is not None else "keep"
        if strategy == "isolate" and decision.isolate_keys:
            call = _call_isolated
        else:
            call = _call_solo if batch.split else _call_many
        return functools.partial(
            self._run_fpga, call=call, hist=strategy == "hist"
        )

    def _run(self, executor, live: List[_Pending]) -> None:
        """One executor call under a timed ``execute`` span, resolved.

        What the executor raises is a *request* error (backend errors
        never leave :meth:`_run_fpga`).  A coalesced batch is then
        re-run entry by entry so that only the offenders fail — a cold
        path; the hot one stays one call per batch.
        """
        started = self._clock()
        with self.tracer.span("execute") as span:
            try:
                outcome = executor(live)
            except Exception as exc:  # noqa: BLE001 - becomes the outcome
                _LOG.info("request error", exc_info=True)
                outcome = _Outcome(error=exc)
            span.set_attributes(**outcome.provenance())
        if outcome.error is not None and len(live) > 1:
            for entry in live:
                self._run(executor, [entry])
            return
        execute_s = self._clock() - started
        with self.tracer.span("resolve", requests=len(live)):
            self._resolve(live, outcome, execute_s)

    def _resolve(
        self, live: List[_Pending], outcome: _Outcome, execute_s: float
    ) -> None:
        """The one place a dispatched ticket ends: counters, histograms,
        optimizer and drain-rate feedback, root span, response."""
        now = self._clock()
        size = len(live)
        error = outcome.error
        shared = dict(outcome.provenance(), batch_size=size)
        results = outcome.results
        if error is None:
            status, counter = RequestStatus.OK, "completed"
        elif isinstance(error, _DeadlineExpired):
            status, counter = RequestStatus.TIMED_OUT, "timed_out"
            results = [{"error": str(error)}] * size
        else:
            status, counter = RequestStatus.FAILED, "failed"
            name = type(error).__name__
            failure = {"error": f"{name}: {error}", "error_type": name}
            results = [failure] * size
        if status is RequestStatus.OK:
            # the caller's hook first: should it raise, nothing is
            # counted yet and the loop's guard fails the batch cleanly
            tuples = sum(entry.tuples for entry in live)
            if self.optimizer is not None:
                self.optimizer.observe(outcome.backend, tuples, execute_s)
            if execute_s > 0:
                self.queue.note_drain_rate(tuples / execute_s)
            if outcome.degraded:
                self.metrics.increment("degraded", size)
        # counted before any ticket resolves: a client holding its
        # response must find it in the counters
        self.metrics.increment(counter, size)
        if status is not RequestStatus.TIMED_OUT:
            # every executed batch, whichever executor ran it
            self.metrics.observe_batch(size)
            if size > 1:
                self.metrics.increment("coalesced_requests", size)
            self.metrics.observe("execute", execute_s)
        totals = [now - entry.submitted_at for entry in live]
        self.metrics.observe_many("total", totals)
        for entry, result, total_s in zip(live, results, totals):
            if entry.span is not None:
                entry.span.set_attributes(status=status.value, **shared)
                entry.span.end(now)
            entry.ticket._resolve(
                PartitionResponse(
                    request_id=entry.ticket.request_id,
                    status=status,
                    queue_wait_s=max(0.0, total_s - execute_s),
                    execute_s=execute_s,
                    total_s=total_s,
                    **shared,
                    **result,
                )
            )

    # -- executors ------------------------------------------------------
    # Each takes the live entries of one batch and returns an _Outcome,
    # or raises the request error that ends the call.

    def _run_fpga(self, live: List[_Pending], call, hist: bool) -> _Outcome:
        """The backend-error ladder: FPGA with bounded-backoff retry,
        then CPU failover — the only place a :class:`BackendFault` is
        caught and the breaker is fed."""
        reason = self.policy.admit_fpga(sum(entry.tuples for entry in live))
        if reason is not None:
            return self._run_cpu(live, reason)
        partitioner = self._fpga_for(live[0], hist)
        deadline = min(
            (e.deadline_at for e in live if e.deadline_at is not None),
            default=None,
        )
        for attempt in range(self.max_retries + 1):
            try:
                self.policy.before_fpga_call()
                outputs = call(partitioner, live)
            except BackendFault as fault:
                self.policy.record_outcome(False)
                reason = str(fault) or "fpga-fault"
                backoff = min(
                    self.retry_backoff_cap_s,
                    self.retry_backoff_s * (2 ** attempt),
                )
                if attempt == self.max_retries or (
                    deadline is not None
                    and self._clock() + backoff > deadline
                ):
                    break
                self.metrics.increment("retries")
                time.sleep(backoff)
            except Exception:
                # the request's error, not the backend's: no breaker
                # failure, but a half-open probe claimed for this call
                # goes back so the next caller can still be admitted
                self.policy.breaker.release_probe()
                raise
            else:
                self.policy.record_outcome(True)
                self.metrics.increment("fpga_invocations")
                return _Outcome(
                    "fpga",
                    [{"output": output} for output in outputs],
                    attempts=attempt + 1,
                )
        return self._run_cpu(live, reason, attempts=attempt + 1)

    def _run_cpu(
        self, live: List[_Pending], reason: str, degraded=True, attempts=0
    ) -> _Outcome:
        """CPU (SWWC) backend: solo calls, no coalescing.  ``attempts``
        counts the FPGA calls that came before."""
        partitioner = self._cpu_for(live[0])
        outputs = _each(
            live,
            lambda e, relation, payloads: partitioner.partition(
                relation, payloads
            ),
        )
        self.metrics.increment("cpu_invocations")
        return _Outcome(
            "cpu",
            [{"output": output} for output in outputs],
            degraded=degraded,
            degrade_reason=reason,
            attempts=attempts,
        )

    def _run_plan(self, live: List[_Pending]) -> _Outcome:
        """One :class:`PlanRequest` through the fused executor; a fused
        failure degrades to the staged pipeline (the plan's own ladder,
        recorded on the response), a staged failure is the request's."""
        from repro.plan import execute_plan

        (entry,) = live  # plan signatures are unique: solo by construction
        request: PlanRequest = entry.request
        run = functools.partial(
            execute_plan,
            request.plan,
            engine=self._engine_spec,
            tracer=self.tracer,
        )
        reason: Optional[str] = None
        try:
            result = run(fused=request.fused)
        except Exception as exc:  # noqa: BLE001 - degrade, then fail
            if not request.fused:
                raise
            reason = f"{type(exc).__name__}: {exc}"
            result = run(fused=False)
        backend = "fused" if result.fused else "staged"
        self.metrics.increment("plans_completed")
        self.metrics.increment(f"plans_{backend}")
        return _Outcome(
            backend,
            [{"result": result}],
            degraded=reason is not None,
            degrade_reason=reason,
            attempts=1 if reason is None else 2,
        )

    def _run_spill(self, live: List[_Pending]) -> _Outcome:
        """Out-of-core: stage the request into a store, stream it
        through a :class:`~repro.storage.spill.SpillPartitioner`, answer
        with the :class:`~repro.storage.spill.PartitionSpill` handle."""
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._owns_spill_root = True
        root = pathlib.Path(self._spill_dir)
        root.mkdir(parents=True, exist_ok=True)
        spills = []

        def run(entry, relation, payloads):
            spills.append(self._spill(entry, root, relation, payloads))
            return spills[-1].to_output()

        (output,) = _each(live, run)  # Batch.spill batches hold one entry
        (spill,) = spills
        self.metrics.increment("spilled")
        return _Outcome("spill", [{"output": output, "spill": spill}])

    def _spill(self, entry: _Pending, root, relation, payloads):
        """Stage ``relation`` into a store under ``root`` and spill it
        into the entry's run directory → the ``PartitionSpill``."""
        from repro.core.modes import LayoutMode
        from repro.storage import RelationStore, SpillPartitioner

        request = entry.request
        request_id = entry.ticket.request_id
        # VRID payloads are positions; the store generates exactly
        # those when no payload column is given.
        if request.config.layout_mode is LayoutMode.VRID:
            payloads = None
        store_dir = root / f"store-{request_id}"
        run_dir = root / f"run-{request_id}"
        try:
            store = RelationStore.ingest(
                relation, store_dir, payloads=payloads
            ).seal()
            with SpillPartitioner(
                config=request.config,
                max_bytes_in_memory=self.spill_bytes_in_memory,
                tracer=self.tracer,
            ) as spiller:
                spill = spiller.run(
                    store,
                    run_dir,
                    # the spill path is already software; a requested
                    # "cpu" fallback degenerates to the robust HIST
                    # accounting
                    on_overflow=(
                        "hist"
                        if request.on_overflow == "cpu"
                        else request.on_overflow
                    ),
                )
        except BaseException:
            # nobody will resume a failed request's run
            shutil.rmtree(run_dir, ignore_errors=True)
            raise
        finally:
            # the staging store is internal scratch: the run files hold
            # all the data now, so drop it rather than leak 2x disk
            shutil.rmtree(store_dir, ignore_errors=True)
        return spill

    def _fpga_for(self, entry: _Pending, hist: bool) -> FpgaPartitioner:
        partitioner = self._fpga.get(entry.signature)
        if partitioner is None:
            config = entry.request.config
            if hist and config.output_mode is OutputMode.PAD:
                # the optimizer predicted this PAD run is doomed to
                # overflow: go straight to HIST accounting instead of
                # paying a failed PAD pass first.  Contents/counts are
                # identical across modes; the decision is part of the
                # signature, so the cache never mixes the two configs.
                config = dataclasses.replace(
                    config, output_mode=OutputMode.HIST
                )
            partitioner = FpgaPartitioner(
                config=config,
                engine=self._engine_spec,
                tracer=self.tracer,
            )
            self._fpga[entry.signature] = partitioner
        return partitioner

    def _cpu_for(self, entry: _Pending) -> CpuPartitioner:
        partitioner = self._cpu.get(entry.signature)
        if partitioner is None:
            partitioner = CpuPartitioner.matching(
                entry.request.config, threads=self._cpu_threads
            )
            self._cpu[entry.signature] = partitioner
        return partitioner
