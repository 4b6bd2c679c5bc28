"""Tests for the async streaming gateway (repro.gateway).

Five layers:

1. wire protocol — frame/data/chunk roundtrips, preamble and size
   validation;
2. the byte-identity invariant — every HIST/PAD x RID/VRID mode,
   streamed in uneven chunks through a real TCP connection against
   both a single :class:`PartitionService` and a 3-shard
   :class:`ShardRouter`, must stitch to exactly the offline
   ``partition()`` output (a hypothesis sweep pins the property);
3. flow control — forced admission backpressure (tiny queue) stalls
   the stream but preserves identity; a slow consumer is bounded by
   its credit window and never stalls other connections;
4. failure paths — PAD overflow as a structured ERROR frame,
   mid-stream connection kills leaving survivors intact;
5. drain — GOAWAY end-of-stream frames, refused late connections,
   ``PartitionService.drain`` refusing new submits;
6. nothing parked, nothing leaked — chunks wait on their tickets
   through loop futures, so a streaming server holds no executor
   thread, and every service-backed test in this file ends with no
   pending task and no unresolved chunk future (``_with_service_server``
   checks), including after a killed client, a mid-window drain, a
   cancelled chunk task and a loop closed before its chunk resolved.

No pytest-asyncio here: each test drives its own ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import struct
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.verify import outputs_identical
from repro.cluster import ShardRouter
from repro.core.modes import LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.errors import PartitionOverflowError
from repro.gateway import (
    GatewayClient,
    GatewayDraining,
    GatewayProtocolError,
    GatewayServer,
    GatewayStreamError,
    iter_chunks,
    stream_partition,
)
from repro.gateway import protocol
from repro.gateway import server as gateway_server
from repro.gateway.protocol import ErrorCode, FrameType
from repro.service import (
    PartitionRequest,
    PartitionService,
    ServiceDrainingError,
)
from repro.workloads.relations import make_relation

MODES = [
    (OutputMode.HIST, LayoutMode.RID),
    (OutputMode.HIST, LayoutMode.VRID),
    (OutputMode.PAD, LayoutMode.RID),
    (OutputMode.PAD, LayoutMode.VRID),
]


def _config(output_mode, layout_mode, partitions=32) -> PartitionerConfig:
    return PartitionerConfig(
        num_partitions=partitions,
        output_mode=output_mode,
        layout_mode=layout_mode,
    )


def _offline(config, keys, payloads=None, on_overflow="hist"):
    partitioner = FpgaPartitioner(config)
    try:
        return partitioner.partition(keys, payloads, on_overflow=on_overflow)
    finally:
        partitioner.close()


def _executor_threads():
    """Threads of asyncio's default executor (``asyncio_0``, ...)."""
    return [
        thread.name
        for thread in threading.enumerate()
        if thread.name.startswith("asyncio_")
    ]


async def _with_service_server(body, service_kw=None, **server_kw):
    """Run ``body(server)`` against a fresh service-backed gateway.

    Doubles as the leak check of every test that uses it: while the
    server streamed, no executor thread existed (a chunk waits on its
    ticket through a loop future, not a parked thread); once it has
    drained, no task is left pending and every future a chunk awaited
    its ticket through is settled — resolved, or cancelled with its
    chunk task.
    """
    service = PartitionService(**(service_kw or {}))
    service.start()
    server = GatewayServer(
        service=service, drain_backend=True, **server_kw
    )
    futures = []
    resolved = gateway_server._resolved

    def tracking(ticket):
        future = resolved(ticket)
        futures.append(future)
        return future

    gateway_server._resolved = tracking
    await server.start()
    try:
        result = await body(server)
        if not server.draining:
            # (a drain hands the backend's blocking drain() to a thread)
            assert _executor_threads() == []
    finally:
        gateway_server._resolved = resolved
        await server.drain()
    me = asyncio.current_task()
    assert [
        task for task in asyncio.all_tasks()
        if task is not me and not task.done()
    ] == []
    assert all(future.done() for future in futures)
    return result


async def _with_router_server(body, shards=3, **server_kw):
    router = ShardRouter(shards, seed=1)
    router.start()
    server = GatewayServer(router=router, drain_backend=True, **server_kw)
    await server.start()
    try:
        return await body(server)
    finally:
        await server.drain()


# ---------------------------------------------------------------------------
# 1. Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def _read(self, data, coro_factory):
        async def runner():
            reader = asyncio.StreamReader()
            reader.feed_data(data)
            reader.feed_eof()
            return await coro_factory(reader)

        return asyncio.run(runner())

    def test_json_frame_roundtrip(self):
        frame = protocol.encode_json(FrameType.HELLO, {"a": 1, "b": "x"})

        async def read(reader):
            return await protocol.read_frame(reader)

        frame_type, payload = self._read(frame, read)
        assert frame_type is FrameType.HELLO
        assert protocol.decode_json(payload) == {"a": 1, "b": "x"}

    def test_data_frame_roundtrip(self):
        keys = np.arange(100, dtype=np.uint32)
        pays = np.arange(100, 200, dtype=np.uint32)
        frame = protocol.encode_data(7, keys, pays)
        # one allocation: the buffer the columns were copied into
        assert type(frame) is bytearray
        assert len(frame) == 5 + 8 + 2 * keys.nbytes
        payload = frame[5:]
        seq, got_keys, got_pays = protocol.decode_data(payload, True)
        assert seq == 7
        assert np.array_equal(got_keys, keys)
        assert np.array_equal(got_pays, pays)
        frame = protocol.encode_data(3, keys, None)
        assert type(frame) is bytearray
        assert len(frame) == 5 + 8 + keys.nbytes
        payload = frame[5:]
        seq, got_keys, got_pays = protocol.decode_data(payload, False)
        assert seq == 3
        assert np.array_equal(got_keys, keys)
        assert got_pays is None

    def test_chunk_frame_roundtrip(self):
        counts = np.array([2, 0, 3], dtype=np.int64)
        keys = [
            np.array([1, 2], dtype=np.uint32),
            np.empty(0, dtype=np.uint32),
            np.array([3, 4, 5], dtype=np.uint32),
        ]
        pays = [k + 10 for k in keys]
        frame = protocol.encode_chunk(9, counts, keys, pays)
        assert type(frame) is bytearray
        assert len(frame) == 5 + 8 + 4 * 3 + 8 * 5
        payload = frame[5:]
        seq, got_counts, got_keys, got_pays = protocol.decode_chunk(
            payload, 3
        )
        assert seq == 9
        assert np.array_equal(got_counts, counts)
        assert np.array_equal(got_keys, np.array([1, 2, 3, 4, 5]))
        assert np.array_equal(got_pays, np.array([11, 12, 13, 14, 15]))

    def test_bad_magic_rejected(self):
        async def read(reader):
            await protocol.read_preamble(reader)

        with pytest.raises(GatewayProtocolError):
            self._read(b"XXXX" + struct.pack("<I", 1), read)

    def test_wrong_version_rejected(self):
        async def read(reader):
            await protocol.read_preamble(reader)

        with pytest.raises(GatewayProtocolError):
            self._read(protocol.MAGIC + struct.pack("<I", 999), read)

    def test_oversized_frame_rejected(self):
        header = struct.pack("<BI", int(FrameType.DATA), 1 << 30)

        async def read(reader):
            await protocol.read_frame(reader, max_bytes=1 << 20)

        with pytest.raises(GatewayProtocolError):
            self._read(header, read)


# ---------------------------------------------------------------------------
# 2. Byte-identity
# ---------------------------------------------------------------------------


class TestByteIdentity:
    @pytest.mark.parametrize("output_mode,layout_mode", MODES)
    def test_all_modes_identical_service(self, output_mode, layout_mode):
        config = _config(output_mode, layout_mode)
        keys = make_relation(20_000, "zipf", seed=5).keys
        reference = _offline(config, keys)

        async def body(server):
            return await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                on_overflow="hist", chunk_tuples=3000,
            )

        output = asyncio.run(_with_service_server(body))
        assert outputs_identical(output, reference)
        assert output.produced_by == "gateway"

    @pytest.mark.parametrize("output_mode,layout_mode", MODES)
    def test_all_modes_identical_cluster(self, output_mode, layout_mode):
        config = _config(output_mode, layout_mode)
        keys = make_relation(12_000, "zipf", seed=9).keys
        reference = _offline(config, keys)

        async def body(server):
            return await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                on_overflow="hist", chunk_tuples=2500,
            )

        output = asyncio.run(_with_router_server(body))
        assert outputs_identical(output, reference)

    def test_explicit_payloads_pass_through(self):
        config = _config(OutputMode.HIST, LayoutMode.RID)
        rng = np.random.default_rng(3)
        keys = rng.integers(0, 2**32, 9_001, dtype=np.uint64).astype(
            np.uint32
        )
        payloads = rng.integers(0, 2**32, 9_001, dtype=np.uint64).astype(
            np.uint32
        )
        reference = _offline(config, keys, payloads)

        async def body(server):
            return await stream_partition(
                "127.0.0.1", server.port, keys, payloads, config=config,
                chunk_tuples=777,
            )

        output = asyncio.run(_with_service_server(body))
        assert outputs_identical(output, reference)

    def test_vrid_ignores_client_payloads(self):
        # the offline call ignores payloads in VRID mode; so must the
        # gateway, even when the stream carries a payload column
        config = _config(OutputMode.HIST, LayoutMode.VRID)
        keys = make_relation(5_000, "random", seed=11).keys
        bogus = np.full(5_000, 0xDEAD, dtype=np.uint32)
        reference = _offline(config, keys)

        async def body(server):
            return await stream_partition(
                "127.0.0.1", server.port, keys, bogus, config=config,
                chunk_tuples=1024,
            )

        output = asyncio.run(_with_service_server(body))
        assert outputs_identical(output, reference)

    @settings(max_examples=8, deadline=None)
    @given(
        mode=st.sampled_from(MODES),
        n=st.integers(min_value=64, max_value=6_000),
        chunk=st.integers(min_value=17, max_value=2_048),
        seed=st.integers(min_value=0, max_value=2**16),
        distribution=st.sampled_from(["random", "zipf", "linear"]),
        with_payloads=st.booleans(),
    )
    def test_identity_property(
        self, mode, n, chunk, seed, distribution, with_payloads
    ):
        output_mode, layout_mode = mode
        config = _config(output_mode, layout_mode, partitions=16)
        keys = make_relation(n, distribution, seed=seed).keys
        payloads = (
            np.arange(1, n + 1, dtype=np.uint32) if with_payloads else None
        )
        reference = _offline(config, keys, payloads)

        async def body(server):
            return await stream_partition(
                "127.0.0.1", server.port, keys, payloads, config=config,
                on_overflow="hist", chunk_tuples=chunk,
            )

        output = asyncio.run(_with_service_server(body))
        assert outputs_identical(output, reference)


# ---------------------------------------------------------------------------
# 3. Flow control
# ---------------------------------------------------------------------------


class TestFlowControl:
    def test_admission_backpressure_stalls_then_completes(self):
        # a one-slot admission queue with several chunks in flight must
        # reject; the gateway absorbs the rejection as a stall (CREDIT
        # notice + retry), and the stream still stitches byte-identical
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(30_000, "zipf", seed=2).keys
        reference = _offline(config, keys)

        async def body(server):
            output = await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                chunk_tuples=512,
            )
            return output, server.metrics.to_dict()["counters"]

        output, counters = asyncio.run(
            _with_service_server(
                body,
                service_kw={
                    "max_queue_requests": 1,
                    "max_batch_requests": 1,
                },
                credits=8,
            )
        )
        assert outputs_identical(output, reference)
        assert counters["backpressure_stalls"] > 0

    def test_slow_consumer_bounded_and_isolated(self):
        # a client that writes DATA but never reads CHUNKs must be
        # held to its credit window server-side, while a well-behaved
        # concurrent stream completes normally
        credits = 2
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        good_keys = make_relation(16_000, "zipf", seed=4).keys
        reference = _offline(config, good_keys)

        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(protocol.PREAMBLE)
            writer.write(
                protocol.encode_json(
                    FrameType.HELLO,
                    {
                        "config": config.to_dict(),
                        "on_overflow": "hist",
                        "has_payloads": False,
                    },
                )
            )
            # 12 chunks into a window of 2, never reading a byte back
            for seq in range(12):
                writer.write(
                    protocol.encode_data(
                        seq, np.arange(1024, dtype=np.uint32), None
                    )
                )
            await writer.drain()
            # let the server chew as far as its window allows
            await asyncio.sleep(0.5)
            gauges = server.metrics.to_dict()["gauges"]
            # the concurrent polite stream is unaffected
            output = await stream_partition(
                "127.0.0.1", server.port, good_keys, config=config,
                chunk_tuples=2048,
            )
            writer.transport.abort()
            return gauges, output

        gauges, output = asyncio.run(
            _with_service_server(body, credits=credits)
        )
        assert 1 <= gauges["max_stream_window"] <= credits
        assert outputs_identical(output, reference)

    def test_client_reports_stall_notices(self):
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(24_000, "zipf", seed=6).keys

        async def body(server):
            client = await GatewayClient.connect("127.0.0.1", server.port)
            try:
                stream = await client.open_stream(config, on_overflow="hist")
                for chunk_keys, _ in iter_chunks(keys, None, 512):
                    await stream.send(chunk_keys)
                output = await stream.finish()
                return output, list(stream.stalls)
            finally:
                await client.close()

        output, stalls = asyncio.run(
            _with_service_server(
                body,
                service_kw={
                    "max_queue_requests": 1,
                    "max_batch_requests": 1,
                },
                credits=8,
            )
        )
        assert outputs_identical(output, _offline(config, keys))
        for notice in stalls:
            assert notice["stalled"] is True
            assert notice["retry_after_s"] >= 0


# ---------------------------------------------------------------------------
# 4. Failure paths
# ---------------------------------------------------------------------------


class TestFailures:
    def test_pad_overflow_raise_maps_to_error_frame(self):
        config = PartitionerConfig(
            num_partitions=8,
            output_mode=OutputMode.PAD,
            layout_mode=LayoutMode.RID,
            pad_tuples=0,  # zero slack: heavy zipf partition overflows
        )
        keys = make_relation(4_096, "zipf", seed=1, zipf_factor=1.5).keys
        with pytest.raises(PartitionOverflowError):
            _offline(config, keys, on_overflow="raise")

        async def body(server):
            with pytest.raises(GatewayStreamError) as excinfo:
                await stream_partition(
                    "127.0.0.1", server.port, keys, config=config,
                    on_overflow="raise", chunk_tuples=500,
                )
            return excinfo.value

        error = asyncio.run(_with_service_server(body))
        assert error.code == ErrorCode.OVERFLOW.value

    def test_pad_overflow_hist_fallback_identical(self):
        config = PartitionerConfig(
            num_partitions=8,
            output_mode=OutputMode.PAD,
            layout_mode=LayoutMode.RID,
            pad_tuples=0,
        )
        keys = make_relation(4_096, "zipf", seed=1, zipf_factor=1.5).keys
        reference = _offline(config, keys, on_overflow="hist")
        assert reference.config.output_mode is OutputMode.HIST

        async def body(server):
            return await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                on_overflow="hist", chunk_tuples=500,
            )

        output = asyncio.run(_with_service_server(body))
        assert outputs_identical(output, reference)

    def test_midstream_kill_leaves_survivors_intact(self):
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = [
            make_relation(12_000, "zipf", seed=20 + i).keys
            for i in range(3)
        ]
        references = [_offline(config, k) for k in keys]

        async def one_stream(server, index):
            client = await GatewayClient.connect("127.0.0.1", server.port)
            try:
                stream = await client.open_stream(config, on_overflow="hist")
                chunks = iter_chunks(keys[index], None, 1500)
                for j, (chunk_keys, _) in enumerate(chunks):
                    if index == 1 and j == len(chunks) // 2:
                        client.abort()
                        return None
                    await stream.send(chunk_keys)
                return await stream.finish()
            finally:
                await client.close()

        async def body(server):
            outputs = await asyncio.gather(
                *(one_stream(server, i) for i in range(3))
            )
            # the server survives the kill and still serves new streams
            late = await stream_partition(
                "127.0.0.1", server.port, keys[1], config=config,
                on_overflow="hist", chunk_tuples=1500,
            )
            return outputs, late

        outputs, late = asyncio.run(_with_service_server(body))
        assert outputs[1] is None
        assert outputs_identical(outputs[0], references[0])
        assert outputs_identical(outputs[2], references[2])
        assert outputs_identical(late, references[1])

    def test_protocol_error_frame_on_garbage(self):
        async def body(server):
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", server.port
            )
            writer.write(protocol.PREAMBLE)
            writer.write(
                protocol.encode_json(FrameType.DATA, {"not": "hello"})
            )
            await writer.drain()
            frame_type, payload = await protocol.read_frame(reader)
            writer.close()
            return frame_type, protocol.decode_json(payload)

        frame_type, info = asyncio.run(_with_service_server(body))
        assert frame_type is FrameType.ERROR
        assert info["code"] == ErrorCode.PROTOCOL.value


# ---------------------------------------------------------------------------
# 5. Drain
# ---------------------------------------------------------------------------


class TestDrain:
    def test_drain_midstream_flushes_and_goaways(self):
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(20_000, "zipf", seed=8).keys

        async def body(server):
            client = await GatewayClient.connect("127.0.0.1", server.port)
            try:
                stream = await client.open_stream(config, on_overflow="hist")
                chunks = iter_chunks(keys, None, 1024)
                for chunk_keys, _ in chunks[:4]:
                    await stream.send(chunk_keys)
                drain_task = asyncio.create_task(server.drain())
                with pytest.raises(GatewayDraining) as excinfo:
                    # keep sending until the GOAWAY lands
                    for chunk_keys, _ in chunks[4:]:
                        await stream.send(chunk_keys)
                        await asyncio.sleep(0.01)
                    await stream.finish()
                await drain_task
                return excinfo.value, server.metrics.to_dict()

            finally:
                await client.close()

        error, snap = asyncio.run(_with_service_server(body))
        # every chunk accepted before the cut was flushed back
        assert error.chunks_flushed >= 0
        assert snap["counters"]["streams_drained"] == 1
        assert (
            snap["counters"]["chunks_out"]
            == snap["counters"]["chunks_in"]
        )

    def test_drained_server_refuses_new_connections(self):
        async def body(server):
            port = server.port
            await server.drain()
            with pytest.raises(OSError):
                await asyncio.wait_for(
                    asyncio.open_connection("127.0.0.1", port), 2.0
                )
            return True

        assert asyncio.run(_with_service_server(body))

    def test_drain_is_idempotent(self):
        async def body(server):
            await asyncio.gather(server.drain(), server.drain())
            await server.drain()
            return True

        assert asyncio.run(_with_service_server(body))

    def test_service_drain_refuses_new_submits(self):
        service = PartitionService()
        service.start()
        keys = np.arange(1000, dtype=np.uint32)
        ticket = service.submit(PartitionRequest(relation=keys))
        service.drain()
        # the in-flight request completed
        assert ticket.result(timeout=10).output is not None
        with pytest.raises(ServiceDrainingError):
            service.submit(PartitionRequest(relation=keys))
        service.drain()  # idempotent
        service.stop()

    def test_gateway_drain_drains_owned_backend(self):
        service = PartitionService()
        service.start()

        async def body():
            server = GatewayServer(service=service, drain_backend=True)
            await server.start()
            await server.drain()

        asyncio.run(body())
        with pytest.raises(ServiceDrainingError):
            service.submit(
                PartitionRequest(relation=np.arange(10, dtype=np.uint32))
            )


# ---------------------------------------------------------------------------
# 6. Nothing parked, nothing leaked
# ---------------------------------------------------------------------------


class TestTicketWaits:
    def test_streaming_256_chunks_parks_no_executor_thread(self):
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(256 * 64, "random", seed=3).keys

        async def body(server):
            output = await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                chunk_tuples=64,
            )
            counters = server.metrics.to_dict()["counters"]
            return output, counters, _executor_threads()

        output, counters, parked = asyncio.run(_with_service_server(body))
        assert counters["chunks_out"] == 256
        assert parked == []
        assert outputs_identical(output, _offline(config, keys))

    def test_client_killed_with_a_full_window_in_flight(self):
        """The kill lands while ``credits`` chunks wait on their
        tickets behind a dispatcher held busy.  Once it frees up, the
        first response finds its connection gone, the stream fails,
        the chunk tasks still waiting are cancelled and their futures
        with them: responses with no taker are dropped without a
        sound, nothing stays pending (``_with_service_server``)."""
        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(8 * 512, "random", seed=4).keys
        gate = threading.Event()
        loop_errors = []

        async def body(server):
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: loop_errors.append(context)
            )
            service = server._backend.service
            service.submit(
                PartitionRequest(relation=keys[:64])
            ).add_done_callback(lambda response: gate.wait(30))
            client = await GatewayClient.connect("127.0.0.1", server.port)
            stream = await client.open_stream(config)
            for chunk_keys, _ in iter_chunks(keys, None, 512)[:4]:
                await stream.send(chunk_keys)
            while server.metrics.to_dict()["gauges"]["inflight_chunks"] < 4:
                await asyncio.sleep(0.005)
            client.abort()
            await client.close()
            await asyncio.sleep(0.05)  # let the server see the reset
            gate.set()
            while server.metrics.to_dict()["gauges"]["open_streams"]:
                await asyncio.sleep(0.005)
            # the server survives and serves the next stream whole
            return await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                chunk_tuples=512,
            )

        try:
            output = asyncio.run(_with_service_server(body))
        finally:
            gate.set()
        assert loop_errors == []
        assert outputs_identical(output, _offline(config, keys))

    def test_cancelled_wait_and_closed_loop_leave_the_dispatcher_running(
        self,
    ):
        keys = np.arange(512, dtype=np.uint32)
        gate = threading.Event()
        loop_errors = []

        with PartitionService(linger_s=0.0) as service:
            service.submit(
                PartitionRequest(relation=keys)
            ).add_done_callback(lambda response: gate.wait(30))

            async def abandon():
                loop = asyncio.get_running_loop()
                loop.set_exception_handler(
                    lambda loop, context: loop_errors.append(context)
                )
                cancelled = gateway_server._resolved(
                    service.submit(PartitionRequest(relation=keys))
                )
                cancelled.cancel()
                # never awaited: the loop closes under this one
                return cancelled, gateway_server._resolved(
                    service.submit(PartitionRequest(relation=keys))
                )

            try:
                cancelled, orphan = asyncio.run(abandon())
            finally:
                gate.set()
            response = service.submit(
                PartitionRequest(relation=keys)
            ).result(timeout=30)
            assert service._dispatcher.is_alive()
            counters = service.metrics.to_dict()["counters"]
        assert response.ok
        assert cancelled.cancelled() and not orphan.done()
        assert loop_errors == []
        assert counters["callback_errors"] == 0
        assert counters["completed"] == 4


# ---------------------------------------------------------------------------
# 7. Observability
# ---------------------------------------------------------------------------


class TestObservability:
    def test_metrics_and_spans_exported(self):
        from repro.obs import Tracer

        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(8_192, "zipf", seed=13).keys
        tracer = Tracer()

        async def body(server):
            await stream_partition(
                "127.0.0.1", server.port, keys, config=config,
                chunk_tuples=1024,
            )
            return server.metrics

        metrics = asyncio.run(
            _with_service_server(body, tracer=tracer)
        )
        counters = metrics.to_dict()["counters"]
        assert counters["connections_opened"] == 1
        assert counters["streams_completed"] == 1
        assert counters["chunks_in"] == counters["chunks_out"] == 8
        assert counters["tuples_in"] == 8_192
        text = metrics.to_prometheus()
        assert "repro_gateway_chunks_in_total 8" in text
        assert "repro_gateway_latency_seconds_bucket" in text
        assert 'stage="stream"' in text
        names = {span.name for span in tracer.export()}
        assert {
            "gateway.connection",
            "gateway.stream",
            "gateway.chunk",
            "gateway.drain",
        } <= names

    def test_optimizer_consulted_midstream(self):
        from repro.optimize import AdaptiveOptimizer

        config = _config(OutputMode.HIST, LayoutMode.RID, partitions=16)
        keys = make_relation(16_384, "zipf", seed=17).keys

        async def body(server):
            client = await GatewayClient.connect("127.0.0.1", server.port)
            try:
                stream = await client.open_stream(config, on_overflow="hist")
                for chunk_keys, _ in iter_chunks(keys, None, 2048):
                    await stream.send(chunk_keys)
                await stream.finish()
                return stream.manifest, server.metrics.to_dict()
            finally:
                await client.close()

        manifest, snap = asyncio.run(
            _with_service_server(
                body, optimizer=AdaptiveOptimizer(seed=0)
            )
        )
        assert snap["counters"]["optimizer_plans"] == 8
        profile = manifest["profile"]
        assert profile["num_tuples"] == 16_384
        assert profile["distinct_keys"] > 0
        assert 0.0 < profile["max_key_share"] <= 1.0
        assert profile["decision"]  # a plan label was recorded
