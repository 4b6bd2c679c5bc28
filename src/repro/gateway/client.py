"""Asyncio client for the streaming gateway.

One :class:`GatewayClient` connection carries one partition stream:

>>> client = await GatewayClient.connect("127.0.0.1", port)
>>> stream = await client.open_stream(config)
>>> for chunk_keys in chunks:           # unbounded is fine
...     await stream.send(chunk_keys)
>>> output = await stream.finish()      # byte-identical to offline
>>> await client.close()

or, for an in-memory relation, the one-shot :meth:`GatewayClient.stream`
/ module-level :func:`stream_partition` convenience.

The client honours the credit window granted in HELLO_OK — at most
``credits`` DATA frames are ever unacknowledged (each CHUNK frame
returns one credit), so a backpressured server stalls the producer
coroutine in :meth:`GatewayStream.send` rather than growing socket
buffers.  CREDIT notice frames (admission-queue stalls, reported with
the server's ``retry_after`` hint) are collected in
:attr:`GatewayStream.stalls`.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import PartitionedOutput
from repro.gateway import protocol
from repro.gateway.chunking import iter_chunks, stitch_output
from repro.gateway.protocol import (
    FrameType,
    GatewayDraining,
    GatewayProtocolError,
    GatewayStreamError,
)

__all__ = ["GatewayClient", "GatewayStream", "stream_partition"]


class GatewayStream:
    """Client-side state of one open stream (use via ``open_stream``)."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        config: PartitionerConfig,
        has_payloads: bool,
        hello_ok: dict,
    ):
        self._reader = reader
        self._writer = writer
        self.config = config
        self.has_payloads = has_payloads
        self.stream_id = hello_ok.get("stream_id")
        self.credits = int(hello_ok.get("credits", 1))
        #: server's preferred chunk size (the wire accepts any)
        self.chunk_tuples = int(hello_ok.get("chunk_tuples", 8192))
        self._window = asyncio.Semaphore(self.credits)
        self._next_seq = 0
        self._chunks: Dict[int, Tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
        #: CREDIT notice frames received (admission backpressure stalls)
        self.stalls: List[dict] = []
        self.manifest: Optional[dict] = None
        self._error: Optional[BaseException] = None
        self._done = asyncio.Event()
        self._receiver = asyncio.create_task(self._receive_loop())

    # -- receive side --------------------------------------------------

    async def _receive_loop(self) -> None:
        try:
            while True:
                frame_type, payload = await protocol.read_frame(self._reader)
                if frame_type is FrameType.CHUNK:
                    seq, counts, keys, pays = protocol.decode_chunk(
                        payload, self.config.num_partitions
                    )
                    self._chunks[seq] = (counts, keys, pays)
                    self._window.release()
                elif frame_type is FrameType.CREDIT:
                    self.stalls.append(protocol.decode_json(payload))
                elif frame_type is FrameType.MANIFEST:
                    self.manifest = protocol.decode_json(payload)
                    return
                elif frame_type is FrameType.ERROR:
                    info = protocol.decode_json(payload)
                    self._error = GatewayStreamError(
                        info.get("code", "failed"),
                        info.get("message", "stream failed"),
                        retry_after=info.get("retry_after"),
                    )
                    return
                elif frame_type is FrameType.GOAWAY:
                    info = protocol.decode_json(payload)
                    self._error = GatewayDraining(
                        info.get("message", "server draining"),
                        chunks_flushed=int(info.get("chunks_flushed", 0)),
                    )
                    return
                else:
                    raise GatewayProtocolError(
                        f"unexpected {frame_type.name} frame mid-stream"
                    )
        except (
            asyncio.IncompleteReadError,
            ConnectionError,
            GatewayProtocolError,
        ) as exc:
            self._error = GatewayStreamError(
                protocol.ErrorCode.FAILED.value,
                f"connection lost mid-stream: {exc}",
            )
        finally:
            self._done.set()
            # unblock any send() parked on the window
            self._window.release()

    def _check_error(self) -> None:
        if self._error is not None:
            raise self._error

    # -- send side -----------------------------------------------------

    async def send(
        self, keys: np.ndarray, payloads: Optional[np.ndarray] = None
    ) -> int:
        """Send one chunk; returns its sequence number.

        Blocks while the credit window is exhausted — this is where
        server-side backpressure lands on the producer.
        """
        self._check_error()
        if self.has_payloads and payloads is None:
            raise GatewayProtocolError(
                "stream was opened with has_payloads=True; every chunk "
                "must carry a payload column"
            )
        await self._window.acquire()
        self._check_error()
        seq = self._next_seq
        self._next_seq += 1
        frame = protocol.encode_data(
            seq, keys, payloads if self.has_payloads else None
        )
        self._writer.write(frame)
        await self._writer.drain()
        return seq

    async def finish(self) -> PartitionedOutput:
        """END the stream, await the manifest, stitch the output."""
        self._check_error()
        self._writer.write(
            protocol.encode_json(FrameType.END, {"chunks": self._next_seq})
        )
        await self._writer.drain()
        await self._done.wait()
        self._check_error()
        assert self.manifest is not None
        if len(self._chunks) != self._next_seq:
            raise GatewayProtocolError(
                f"received {len(self._chunks)} CHUNK frames for "
                f"{self._next_seq} sent"
            )
        output = stitch_output(
            self.manifest,
            [self._chunks[seq] for seq in range(self._next_seq)],
            degraded=bool(self.manifest.get("degraded")),
        )
        return output

    async def wait_closed(self) -> None:
        """Await the receiver (after an error or external close)."""
        await self._done.wait()

    def cancel(self) -> None:
        """Stop the receiver task (used by ``GatewayClient.close``)."""
        self._receiver.cancel()


class GatewayClient:
    """One gateway connection (= one stream); see module docstring."""

    def __init__(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ):
        self._reader = reader
        self._writer = writer
        self._stream: Optional[GatewayStream] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "GatewayClient":
        reader, writer = await asyncio.open_connection(host, port)
        writer.write(protocol.PREAMBLE)
        await writer.drain()
        return cls(reader, writer)

    async def open_stream(
        self,
        config: PartitionerConfig,
        on_overflow: str = "raise",
        has_payloads: bool = False,
        priority: int = 1,
        deadline_s: Optional[float] = None,
    ) -> GatewayStream:
        """HELLO/HELLO_OK handshake; returns the ready stream."""
        if self._stream is not None:
            raise GatewayProtocolError(
                "connection already carries a stream; open a new "
                "connection per stream"
            )
        self._writer.write(
            protocol.encode_json(
                FrameType.HELLO,
                {
                    "config": config.to_dict(),
                    "on_overflow": on_overflow,
                    "has_payloads": has_payloads,
                    "priority": priority,
                    "deadline_s": deadline_s,
                },
            )
        )
        await self._writer.drain()
        frame_type, payload = await protocol.read_frame(self._reader)
        info = protocol.decode_json(payload)
        if frame_type is FrameType.ERROR:
            raise GatewayStreamError(
                info.get("code", "failed"),
                info.get("message", "stream refused"),
                retry_after=info.get("retry_after"),
            )
        if frame_type is not FrameType.HELLO_OK:
            raise GatewayProtocolError(
                f"expected HELLO_OK, got {frame_type.name}"
            )
        self._stream = GatewayStream(
            self._reader, self._writer, config, has_payloads, info
        )
        return self._stream

    async def stream(
        self,
        keys: np.ndarray,
        payloads: Optional[np.ndarray] = None,
        config: Optional[PartitionerConfig] = None,
        on_overflow: str = "raise",
        chunk_tuples: Optional[int] = None,
        priority: int = 1,
        deadline_s: Optional[float] = None,
    ) -> PartitionedOutput:
        """One-shot: chunk an in-memory relation through the stream."""
        config = config or PartitionerConfig()
        stream = await self.open_stream(
            config,
            on_overflow=on_overflow,
            has_payloads=payloads is not None,
            priority=priority,
            deadline_s=deadline_s,
        )
        for chunk_keys, chunk_pays in iter_chunks(
            keys, payloads, chunk_tuples or stream.chunk_tuples
        ):
            await stream.send(chunk_keys, chunk_pays)
        return await stream.finish()

    def abort(self) -> None:
        """Kill the connection mid-stream (tests the server's cleanup)."""
        if self._stream is not None:
            self._stream.cancel()
        transport = self._writer.transport
        if transport is not None:
            transport.abort()

    async def close(self) -> None:
        """Cancel any open stream and close the connection cleanly."""
        if self._stream is not None:
            self._stream.cancel()
            await asyncio.gather(
                self._stream._receiver, return_exceptions=True
            )
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, BrokenPipeError):
            pass


async def stream_partition(
    host: str,
    port: int,
    keys: np.ndarray,
    payloads: Optional[np.ndarray] = None,
    config: Optional[PartitionerConfig] = None,
    on_overflow: str = "raise",
    chunk_tuples: Optional[int] = None,
    priority: int = 1,
    deadline_s: Optional[float] = None,
) -> PartitionedOutput:
    """Connect, stream one relation, return the stitched output."""
    client = await GatewayClient.connect(host, port)
    try:
        return await client.stream(
            keys,
            payloads,
            config,
            on_overflow=on_overflow,
            chunk_tuples=chunk_tuples,
            priority=priority,
            deadline_s=deadline_s,
        )
    finally:
        await client.close()
