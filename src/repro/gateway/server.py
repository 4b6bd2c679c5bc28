"""The asyncio streaming gateway server.

:class:`GatewayServer` is the network front-end of the partitioning
stack: one TCP connection per partition stream, unbounded input chunked
by the client, each chunk submitted through a
:class:`~repro.service.service.PartitionService` (or a
:class:`~repro.cluster.router.ShardRouter` in cluster mode) under the
HIST/RID chunk-plane config, results streamed back incrementally, and a
final MANIFEST frame carrying the global accounting so the client's
stitched output is byte-identical to one offline ``partition()`` call
(see :mod:`repro.gateway.chunking`).

Flow control is credit-based and maps straight onto the admission
queue's backpressure:

* the HELLO_OK grants a window of ``credits`` chunks; every CHUNK (or
  ERROR) frame returns one credit, so a client never has more than
  ``credits`` DATA frames unacknowledged;
* server-side the same window is an :class:`asyncio.Queue` bound — when
  it fills, the connection's read loop simply stops reading, which
  stalls the *sender* through TCP, never server memory;
* a slow *consumer* (client that stops reading) blocks the connection's
  write path in ``writer.drain()`` — again only its own stream stalls;
* an :class:`~repro.service.queue.AdmissionQueue` rejection pauses the
  stream for the queue's ``retry_after`` hint and tells the client with
  a CREDIT notice frame (``backpressure_stalls`` counts them).

On SIGTERM the server drains: stops accepting, stops reading new DATA,
flushes every in-flight chunk, emits GOAWAY end-of-stream frames, and
(when it owns the backend) calls
:meth:`~repro.service.service.PartitionService.drain`.
"""

from __future__ import annotations

import asyncio
import signal
import time
from typing import Optional, Set

import numpy as np

from repro.core.pieces import piece_config
from repro.errors import ConfigurationError, PartitionOverflowError, ReproError
from repro.gateway import protocol
from repro.gateway.chunking import StreamAccounting, global_payloads
from repro.gateway.metrics import GatewayMetrics
from repro.gateway.protocol import ErrorCode, FrameType, GatewayProtocolError
from repro.analysis.sketch import StreamSketch
from repro.core.modes import LayoutMode, PartitionerConfig
from repro.obs.tracing import resolve_tracer
from repro.service.service import (
    PartitionRequest,
    RequestStatus,
    ServiceDrainingError,
)

#: frame header bytes, counted into bytes_in/bytes_out alongside payloads
_HEADER_BYTES = 5

#: give up a stream after this many consecutive admission rejections
MAX_STALL_RETRIES = 1000

_VALID_OVERFLOW = ("raise", "hist")


class _ChunkJob:
    """One in-flight chunk: wire sequence number + its execution task."""

    __slots__ = ("seq", "tuples", "started_s", "task")

    def __init__(self, seq: int, tuples: int, started_s: float, task):
        self.seq = seq
        self.tuples = tuples
        self.started_s = started_s
        self.task = task


class _ChunkResult:
    """What a backend hands back per chunk."""

    __slots__ = ("output", "backend", "degraded", "reason")

    def __init__(self, output, backend, degraded=False, reason=None):
        self.output = output
        self.backend = backend
        self.degraded = degraded
        self.reason = reason


def _resolved(ticket) -> "asyncio.Future":
    """A future on the running loop that the ticket's response
    completes — no executor thread parked in ``ticket.result()``.

    The ticket resolves on the service's dispatcher thread, so the
    callback only posts the response to the loop.  A chunk task
    cancelled meanwhile has cancelled the future, and a loop closed
    meanwhile has nobody waiting: both drop the response.
    """
    loop = asyncio.get_running_loop()
    future = loop.create_future()

    def deliver(response) -> None:
        if not future.done():
            future.set_result(response)

    def post(response) -> None:
        try:
            loop.call_soon_threadsafe(deliver, response)
        except RuntimeError:
            pass  # loop closed before the chunk resolved

    ticket.add_done_callback(post)
    return future


class _ServiceBackend:
    """Chunk executor over a single in-process ``PartitionService``."""

    def __init__(self, service):
        self.service = service

    async def partition_chunk(
        self, keys, payloads, config, priority, deadline_s, on_stall
    ) -> _ChunkResult:
        attempts = 0
        while True:
            try:
                ticket = self.service.submit(
                    PartitionRequest(
                        relation=keys,
                        payloads=payloads,
                        config=config,
                        priority=priority,
                        deadline_s=deadline_s,
                        on_overflow="raise",
                    )
                )
            except ServiceDrainingError as exc:
                raise protocol.GatewayStreamError(
                    ErrorCode.DRAINING.value, str(exc)
                ) from exc
            except ReproError as exc:
                raise protocol.GatewayStreamError(
                    ErrorCode.FAILED.value, str(exc)
                ) from exc
            response = await _resolved(ticket)
            if response.status is RequestStatus.REJECTED:
                attempts += 1
                if attempts > MAX_STALL_RETRIES:
                    raise protocol.GatewayStreamError(
                        ErrorCode.REJECTED.value,
                        f"admission queue still full after {attempts} "
                        f"retries",
                        retry_after=response.retry_after,
                    )
                await on_stall(response.retry_after or 0.01)
                continue
            if response.status is RequestStatus.TIMED_OUT:
                raise protocol.GatewayStreamError(
                    ErrorCode.DEADLINE.value,
                    f"chunk missed its {deadline_s}s deadline",
                )
            if response.status is not RequestStatus.OK:
                raise protocol.GatewayStreamError(
                    ErrorCode.FAILED.value,
                    response.error or "backend execution failed",
                )
            return _ChunkResult(
                response.output,
                response.backend,
                response.degraded,
                response.degrade_reason,
            )

    def drain(self) -> None:
        self.service.drain()


class _RouterBackend:
    """Chunk executor over a ``ShardRouter`` cluster front-end."""

    def __init__(self, router):
        self.router = router

    async def partition_chunk(
        self, keys, payloads, config, priority, deadline_s, on_stall
    ) -> _ChunkResult:
        response = await asyncio.to_thread(
            self.router.partition,
            keys,
            payloads,
            config,
            "raise",
            deadline_s,
        )
        if response.status is RequestStatus.TIMED_OUT:
            raise protocol.GatewayStreamError(
                ErrorCode.DEADLINE.value,
                f"chunk missed its {deadline_s}s deadline",
            )
        if not response.ok:
            raise protocol.GatewayStreamError(
                ErrorCode.FAILED.value,
                response.error or "cluster execution failed",
            )
        return _ChunkResult(
            response.output,
            ",".join(sorted(set(response.backends))) or "cluster",
            response.degraded,
            "; ".join(response.degrade_reasons) or None,
        )

    def drain(self) -> None:
        self.router.stop()


class _Connection:
    """One accepted connection = one partition stream."""

    def __init__(self, server: "GatewayServer", reader, writer, stream_id):
        self.server = server
        self.reader = reader
        self.writer = writer
        self.stream_id = stream_id
        self.metrics = server.metrics
        self._wlock = asyncio.Lock()
        # the credit window: pump acquires before reading ahead, flush
        # releases after delivering — the queue itself stays unbounded
        # so the END/abort sentinel can always be enqueued
        self._window = asyncio.Semaphore(server.credits)
        self._pending: asyncio.Queue = asyncio.Queue()
        self._inflight = 0
        self._pump_task: Optional[asyncio.Task] = None
        self._run_task: Optional[asyncio.Task] = None
        self._draining = False
        self._finished = asyncio.Event()
        self._chunks_flushed = 0
        self._stream_open = False
        # stream state, bound at HELLO
        self.config = None
        self.backend_config = None
        self.on_overflow = "raise"
        self.has_payloads = False
        self.use_client_payloads = False
        self.priority = 1
        self.deadline_s: Optional[float] = None
        self.accounting: Optional[StreamAccounting] = None
        self.sketch = StreamSketch()
        self.last_decision: Optional[str] = None
        self.backends_seen: Set[str] = set()
        self.degraded = False
        self.degrade_reasons: Set[str] = set()

    # -- frame IO ------------------------------------------------------

    async def _send(self, frame: bytes) -> None:
        async with self._wlock:
            self.writer.write(frame)
            await self.writer.drain()
        self.metrics.increment("frames_out")
        self.metrics.increment("bytes_out", len(frame))

    async def _send_error(
        self, code: str, message: str, **extra
    ) -> None:
        payload = {"code": code, "message": message, **extra}
        try:
            await self._send(protocol.encode_json(FrameType.ERROR, payload))
            self.metrics.increment("errors_sent")
        except (ConnectionError, RuntimeError):
            pass  # peer already gone; the error had nowhere to go

    # -- lifecycle -----------------------------------------------------

    async def run(self) -> None:
        started_s = self.server._clock()
        ok = False
        try:
            await protocol.read_preamble(self.reader)
            if self.server.draining:
                await self._send_error(
                    ErrorCode.DRAINING.value,
                    "server is draining; not accepting new streams",
                )
                return
            await self._handshake()
            ok = await self._stream()
        except protocol.GatewayProtocolError as exc:
            self.metrics.increment("protocol_errors")
            await self._send_error(ErrorCode.PROTOCOL.value, str(exc))
        except (
            ConnectionError,
            asyncio.IncompleteReadError,
            BrokenPipeError,
        ):
            pass  # peer vanished; nothing to tell it
        finally:
            if self._stream_open:
                self.metrics.adjust_gauge("open_streams", -1)
                if not ok:
                    self.metrics.increment("streams_failed")
            self._finished.set()
            self.server.tracer.record_span(
                "gateway.connection",
                started_s,
                self.server._clock(),
                stream_id=self.stream_id,
                ok=ok,
            )

    async def _handshake(self) -> None:
        frame_type, payload = await protocol.read_frame(
            self.reader, self.server.max_frame_bytes
        )
        self.metrics.increment("frames_in")
        self.metrics.increment("bytes_in", len(payload) + _HEADER_BYTES)
        if frame_type is not FrameType.HELLO:
            raise GatewayProtocolError(
                f"expected HELLO, got {frame_type.name}"
            )
        hello = protocol.decode_json(payload)
        try:
            self.config = PartitionerConfig.from_dict(hello["config"])
        except (KeyError, ConfigurationError) as exc:
            raise GatewayProtocolError(f"bad HELLO config: {exc}") from exc
        self.on_overflow = hello.get("on_overflow", "raise")
        if self.on_overflow not in _VALID_OVERFLOW:
            raise GatewayProtocolError(
                f"on_overflow must be one of {_VALID_OVERFLOW}, got "
                f"{self.on_overflow!r}"
            )
        self.has_payloads = bool(hello.get("has_payloads", False))
        # VRID streams always partition against generated global
        # positions, exactly like the offline call ignores payloads
        self.use_client_payloads = (
            self.has_payloads
            and self.config.layout_mode is not LayoutMode.VRID
        )
        self.priority = int(hello.get("priority", 1))
        self.deadline_s = (
            float(hello["deadline_s"])
            if hello.get("deadline_s") is not None
            else None
        )
        self.backend_config = piece_config(self.config)
        self.accounting = StreamAccounting(self.config, self.on_overflow)
        self._stream_open = True
        self.metrics.increment("streams_opened")
        self.metrics.adjust_gauge("open_streams", +1)
        await self._send(
            protocol.encode_json(
                FrameType.HELLO_OK,
                {
                    "stream_id": self.stream_id,
                    "credits": self.server.credits,
                    "chunk_tuples": self.server.chunk_tuples,
                    "config": self.config.to_dict(),
                    "server": f"repro-gateway/{protocol.PROTOCOL_VERSION}",
                },
            )
        )

    async def _stream(self) -> bool:
        """Pump + flush until END/drain/error; True on clean MANIFEST."""
        stream_started_s = self.server._clock()
        self._pump_task = pump = asyncio.create_task(self._pump())
        flush_task = asyncio.create_task(self._flush())
        try:
            done, _ = await asyncio.wait(
                {pump, flush_task},
                return_when=asyncio.FIRST_EXCEPTION,
            )
            if flush_task in done and flush_task.exception() is not None:
                pump.cancel()
            await asyncio.wait({pump})
            if pump.cancelled() or pump.exception() is not None:
                # pump died before queueing its END sentinel; flush the
                # chunks already in flight, then let flush exit
                self._pending.put_nowait(None)
            # flush must settle either way so every submitted chunk
            # task is awaited (none left pending on its ticket);
            # connection errors propagate to run()
            flush_error = None
            try:
                await flush_task
            except protocol.GatewayStreamError as exc:
                flush_error = exc
            if flush_error is not None:
                await self._send_error(
                    flush_error.code,
                    str(flush_error),
                    retry_after=flush_error.retry_after,
                )
                return False
            if pump.cancelled():
                if self._draining:
                    await self._send(
                        protocol.encode_json(
                            FrameType.GOAWAY,
                            {
                                "code": ErrorCode.DRAINING.value,
                                "message": "server draining; stream cut "
                                "after flushing in-flight chunks",
                                "chunks_flushed": self._chunks_flushed,
                                "tuples": self.accounting.tuples,
                            },
                        )
                    )
                    self.metrics.increment("streams_drained")
                return False
            if pump.exception() is not None:
                raise pump.exception()
            return await self._finish_stream(stream_started_s)
        finally:
            for task in (pump, flush_task):
                if not task.done():
                    task.cancel()
            await asyncio.gather(pump, flush_task, return_exceptions=True)
            await self._settle_leftover_jobs()

    async def _settle_leftover_jobs(self) -> None:
        """Cancel and await chunk tasks flush never got to."""
        leftovers = []
        while not self._pending.empty():
            job = self._pending.get_nowait()
            if job is None:
                continue
            self.metrics.adjust_gauge("inflight_chunks", -1)
            job.task.cancel()
            leftovers.append(job.task)
        if leftovers:
            await asyncio.gather(*leftovers, return_exceptions=True)

    async def _finish_stream(self, stream_started_s: float) -> bool:
        try:
            manifest = self.accounting.finalize()
        except PartitionOverflowError as exc:
            await self._send_error(
                ErrorCode.OVERFLOW.value,
                str(exc),
                partition=exc.partition,
                capacity=exc.capacity,
                tuples_seen=exc.tuples_seen,
            )
            return False
        manifest["degraded"] = self.degraded
        manifest["degrade_reasons"] = sorted(self.degrade_reasons)
        manifest["backends"] = sorted(self.backends_seen)
        # the ingest profile exists only when an optimizer consumed it
        # (sketching is skipped otherwise — see _pump)
        manifest["profile"] = (
            {
                "num_tuples": self.sketch.num_tuples,
                "distinct_keys": int(round(self.sketch.cardinality())),
                "max_key_share": self.sketch.max_key_share(),
                "decision": self.last_decision,
            }
            if self.server.optimizer is not None
            else None
        )
        await self._send(
            protocol.encode_json(FrameType.MANIFEST, manifest)
        )
        now = self.server._clock()
        self.metrics.increment("streams_completed")
        self.metrics.observe("stream", now - stream_started_s)
        self.server.tracer.record_span(
            "gateway.stream",
            stream_started_s,
            now,
            stream_id=self.stream_id,
            chunks=self.accounting.chunks,
            tuples=self.accounting.tuples,
            bytes=self.accounting.tuples * 8,
            decision=self.last_decision,
        )
        return True

    # -- the two halves of the stream ----------------------------------

    async def _pump(self) -> None:
        """Read DATA frames, account, submit; END breaks the loop."""
        next_seq = 0
        while True:
            frame_type, payload = await protocol.read_frame(
                self.reader, self.server.max_frame_bytes
            )
            self.metrics.increment("frames_in")
            self.metrics.increment("bytes_in", len(payload) + _HEADER_BYTES)
            if frame_type is FrameType.END:
                break
            if frame_type is not FrameType.DATA:
                raise GatewayProtocolError(
                    f"expected DATA or END, got {frame_type.name}"
                )
            seq, keys, payloads = protocol.decode_data(
                payload, self.has_payloads
            )
            if seq != next_seq:
                raise GatewayProtocolError(
                    f"DATA out of order: got seq {seq}, want {next_seq}"
                )
            next_seq += 1
            # the flow-control bound: an exhausted credit window pauses
            # this read loop until the flush side delivers a CHUNK
            # downstream, stalling the sender through TCP — server
            # memory never holds more than `credits` chunks per stream
            await self._window.acquire()
            n = int(keys.shape[0])
            offset = self.accounting.observe(keys)
            if self.server.optimizer is not None:
                # sketching costs an order of magnitude more than the
                # chunk's own partition work — only pay it when someone
                # (the adaptive optimizer) consumes the profile
                self.sketch.add(np.asarray(keys))
                self._consult_optimizer()
            pays = global_payloads(
                payloads if self.use_client_payloads else None, offset, n
            )
            started_s = self.server._clock()
            job = _ChunkJob(
                seq,
                n,
                started_s,
                asyncio.create_task(
                    self.server._backend.partition_chunk(
                        keys,
                        pays,
                        self.backend_config,
                        self.priority,
                        self.deadline_s,
                        self._on_stall,
                    )
                ),
            )
            self._inflight += 1
            self.metrics.increment("chunks_in")
            self.metrics.increment("tuples_in", n)
            self.metrics.adjust_gauge("inflight_chunks", +1)
            self.metrics.set_gauge_max("max_stream_window", self._inflight)
            self._pending.put_nowait(job)
        self._pending.put_nowait(None)

    async def _flush(self) -> None:
        """Await chunk results in order, stream CHUNK frames back."""
        while True:
            job = await self._pending.get()
            if job is None:
                return
            try:
                result: _ChunkResult = await job.task
            finally:
                self._inflight -= 1
                self.metrics.adjust_gauge("inflight_chunks", -1)
            output = result.output
            self.backends_seen.add(result.backend or "unknown")
            if result.degraded:
                self.degraded = True
                if result.reason:
                    self.degrade_reasons.add(result.reason)
            frame = protocol.encode_chunk(
                job.seq,
                output.counts,
                output.partition_keys,
                output.partition_payloads,
            )
            # writer.drain() is the slow-consumer stall point: a client
            # that stops reading parks this coroutine (and, since the
            # credit below is only returned after delivery, the read
            # loop too) without growing server buffers
            await self._send(frame)
            self._window.release()
            self._chunks_flushed += 1
            now = self.server._clock()
            self.metrics.increment("chunks_out")
            self.metrics.increment("credits_granted")
            self.metrics.observe("chunk", now - job.started_s)
            self.server.tracer.record_span(
                "gateway.chunk",
                job.started_s,
                now,
                stream_id=self.stream_id,
                seq=job.seq,
                tuples=job.tuples,
                bytes=job.tuples * 8,
                backend=result.backend,
            )

    def _consult_optimizer(self) -> None:
        """Feed the cumulative ingest sketch to the adaptive optimizer.

        Every chunk refreshes the stream-level workload profile
        (HyperLogLog cardinality + Misra–Gries heavy hitters over
        *everything seen so far*, not just the current chunk) and asks
        the optimizer to re-plan — so skew that only emerges mid-stream
        still steers placement and is reported in the manifest.
        """
        optimizer = self.server.optimizer
        if optimizer is None:
            return
        from repro.optimize.profile import WorkloadProfile

        profile = WorkloadProfile.from_sketch(
            self.sketch, tuple_bytes=self.config.tuple_bytes
        )
        decision = optimizer.plan_for(profile, self.backend_config)
        self.last_decision = decision.label
        self.metrics.increment("optimizer_plans")

    async def _on_stall(self, retry_after: float) -> None:
        """Admission rejection: tell the client, wait the hint out."""
        self.metrics.increment("backpressure_stalls")
        await self._send(
            protocol.encode_json(
                FrameType.CREDIT,
                {
                    "available": 0,
                    "stalled": True,
                    "retry_after_s": retry_after,
                },
            )
        )
        await asyncio.sleep(retry_after)

    async def drain(self) -> None:
        """Stop reading, flush in-flight chunks, emit GOAWAY."""
        self._draining = True
        if self._pump_task is not None and not self._pump_task.done():
            self._pump_task.cancel()
            # asyncio.wait(FIRST_EXCEPTION) does not wake on a *cancelled*
            # task, so the flush side would never learn the stream ended:
            # enqueue its end-of-stream sentinel here (pump has no await
            # point between claiming a credit and enqueueing the job, so
            # no chunk can slip in behind this)
            self._pending.put_nowait(None)
        elif self._pump_task is None and self._run_task is not None:
            # still mid-handshake: nothing in flight, just cut it
            self._run_task.cancel()
        await self._finished.wait()

    def abort(self) -> None:
        """Force-close (drain timeout): no more flushing, cut the peer."""
        if self._run_task is not None and not self._run_task.done():
            self._run_task.cancel()
        transport = self.writer.transport
        if transport is not None:
            transport.abort()


class GatewayServer:
    """Asyncio TCP front-end over a service or cluster (module docs).

    Args:
        service: a started
            :class:`~repro.service.service.PartitionService` — the
            single-node backend.  Mutually exclusive with ``router``.
        router: a started :class:`~repro.cluster.router.ShardRouter` —
            the cluster backend.
        host / port: listen address; port ``0`` picks a free port
            (read it back from :attr:`port` after :meth:`start`).
        chunk_tuples: the chunk-size hint handed to clients in
            HELLO_OK (the wire accepts any chunk size).
        credits: per-stream flow-control window, in chunks.
        max_frame_bytes: hard per-frame size ceiling.
        optimizer: optional
            :class:`~repro.optimize.optimizer.AdaptiveOptimizer` fed
            each stream's cumulative ingest sketch after every chunk.
        drain_backend: when True, :meth:`drain` also drains/stops the
            backend (set by ``repro gateway serve``, which owns it).
    """

    def __init__(
        self,
        service=None,
        router=None,
        host: str = "127.0.0.1",
        port: int = 0,
        chunk_tuples: int = 8192,
        credits: int = 4,
        max_frame_bytes: int = protocol.MAX_FRAME_BYTES,
        tracer=None,
        optimizer=None,
        metrics: Optional[GatewayMetrics] = None,
        drain_backend: bool = False,
        drain_timeout_s: float = 30.0,
        clock=time.monotonic,
    ):
        if (service is None) == (router is None):
            raise ReproError(
                "exactly one of service= or router= must be given"
            )
        if credits < 1:
            raise ReproError(f"credits must be >= 1, got {credits}")
        if chunk_tuples < 1:
            raise ReproError(
                f"chunk_tuples must be >= 1, got {chunk_tuples}"
            )
        self._backend = (
            _ServiceBackend(service)
            if service is not None
            else _RouterBackend(router)
        )
        self.host = host
        self._requested_port = port
        self.chunk_tuples = chunk_tuples
        self.credits = credits
        self.max_frame_bytes = max_frame_bytes
        self.tracer = resolve_tracer(tracer)
        self.optimizer = optimizer
        self.metrics = metrics or GatewayMetrics(clock=clock)
        self.drain_backend = drain_backend
        self.drain_timeout_s = drain_timeout_s
        self._clock = clock
        self._server: Optional[asyncio.base_events.Server] = None
        self._connections: Set[_Connection] = set()
        self._stream_sequence = 0
        self._draining = False
        self._drained = asyncio.Event()

    # -- lifecycle -----------------------------------------------------

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        if self._server is None or not self._server.sockets:
            return self._requested_port
        return self._server.sockets[0].getsockname()[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> "GatewayServer":
        """Bind and start accepting connections (resolves ``port=0``)."""
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self._requested_port
        )
        return self

    async def serve_forever(self) -> None:
        """Serve until :meth:`drain` completes (e.g. from SIGTERM)."""
        if self._server is None:
            await self.start()
        await self._drained.wait()

    def install_signal_handlers(self, loop=None) -> None:
        """SIGTERM/SIGINT → graceful :meth:`drain` (serve-mode only)."""
        loop = loop or asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            loop.add_signal_handler(
                sig, lambda: asyncio.ensure_future(self.drain())
            )

    async def drain(self) -> None:
        """Graceful shutdown: stop accepting, flush, end every stream.

        Idempotent; concurrent callers all wait for the same drain.
        """
        if self._draining:
            await self._drained.wait()
            return
        self._draining = True
        started_s = self._clock()
        if self._server is not None:
            self._server.close()
        connections = list(self._connections)

        async def _drain_one(connection: _Connection) -> None:
            try:
                await asyncio.wait_for(
                    connection.drain(), self.drain_timeout_s
                )
            except asyncio.TimeoutError:
                # a consumer that won't read its flushed chunks cannot
                # hold the shutdown hostage — cut it
                connection.abort()

        if connections:
            await asyncio.gather(
                *(_drain_one(connection) for connection in connections),
                return_exceptions=True,
            )
        if self._server is not None:
            await self._server.wait_closed()
        if self.drain_backend:
            await asyncio.to_thread(self._backend.drain)
        self.tracer.record_span(
            "gateway.drain",
            started_s,
            self._clock(),
            streams=len(connections),
        )
        self._drained.set()

    async def __aenter__(self) -> "GatewayServer":
        return await self.start()

    async def __aexit__(self, *exc) -> None:
        await self.drain()

    # -- accept path ---------------------------------------------------

    async def _on_connection(self, reader, writer) -> None:
        self._stream_sequence += 1
        connection = _Connection(
            self, reader, writer, stream_id=self._stream_sequence
        )
        connection._run_task = asyncio.current_task()
        self._connections.add(connection)
        self.metrics.increment("connections_opened")
        self.metrics.adjust_gauge("open_connections", +1)
        try:
            await connection.run()
        finally:
            self._connections.discard(connection)
            self.metrics.increment("connections_closed")
            self.metrics.adjust_gauge("open_connections", -1)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, BrokenPipeError):
                pass
