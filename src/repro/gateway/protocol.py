"""Wire protocol of the streaming gateway.

One TCP connection carries one partition stream.  After an 8-byte
preamble (``b"RPGW"`` + little-endian ``u32`` protocol version) every
message is a length-prefixed frame::

    +------+----------------+-------------------+
    | type | payload length | payload           |
    | u8   | u32 LE         | `length` bytes    |
    +------+----------------+-------------------+

Control frames (:data:`FrameType.HELLO`, ``HELLO_OK``, ``CREDIT``,
``END``, ``MANIFEST``, ``ERROR``, ``GOAWAY``) carry UTF-8 JSON objects.
Data-plane frames are raw little-endian binary:

* ``DATA`` (client → server): ``u32 seq | u32 n`` then ``n`` LE-u32
  keys, then (iff the HELLO declared ``has_payloads``) ``n`` LE-u32
  payloads.
* ``CHUNK`` (server → client): ``u32 seq | u32 n`` then one LE-u32
  tuple count per partition, then the chunk's keys concatenated in
  partition order, then the matching payloads.

The full frame grammar, the credit contract, and the error codes are
documented in ``docs/GATEWAY.md``.
"""

from __future__ import annotations

import asyncio
import enum
import json
import struct
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ReproError

#: connection preamble: magic + protocol version
MAGIC = b"RPGW"
PROTOCOL_VERSION = 1
PREAMBLE = MAGIC + struct.pack("<I", PROTOCOL_VERSION)

#: frame header: type byte + little-endian payload length
_HEADER = struct.Struct("<BI")

#: hard per-frame ceiling — a corrupt length prefix must not allocate
#: unbounded memory server-side
MAX_FRAME_BYTES = 64 << 20

#: DATA / CHUNK binary prefix: sequence number + tuple count
_DATA_PREFIX = struct.Struct("<II")


class FrameType(enum.IntEnum):
    """Every frame type on the wire (see module docstring)."""

    HELLO = 1  # client → server: stream open (JSON)
    HELLO_OK = 2  # server → client: stream accepted (JSON)
    DATA = 3  # client → server: one chunk of keys[/payloads] (binary)
    CHUNK = 4  # server → client: one partitioned chunk (binary)
    CREDIT = 5  # server → client: flow-control notice (JSON)
    END = 6  # client → server: end of stream (JSON)
    MANIFEST = 7  # server → client: final global accounting (JSON)
    ERROR = 8  # server → client: stream failed (JSON)
    GOAWAY = 9  # server → client: stream cut short by drain (JSON)


class ErrorCode(str, enum.Enum):
    """``code`` field of ERROR frames — the structured outcomes."""

    REJECTED = "rejected"  # admission queue stayed full past retry budget
    DEADLINE = "deadline"  # per-chunk deadline expired service-side
    OVERFLOW = "overflow"  # PAD capacity exceeded under "raise" policy
    DRAINING = "draining"  # server refused the stream while draining
    PROTOCOL = "protocol"  # malformed frame / handshake
    FAILED = "failed"  # backend execution error


class GatewayProtocolError(ReproError):
    """A peer violated the frame grammar or the handshake."""


class GatewayStreamError(ReproError):
    """A stream terminated with an ERROR frame.

    Carries the structured fields so callers can branch on
    :attr:`code` (an :class:`ErrorCode` value) and honour
    :attr:`retry_after`.
    """

    def __init__(
        self,
        code: str,
        message: str,
        retry_after: Optional[float] = None,
    ):
        self.code = code
        #: the message without the ``[code] `` prefix (what an ERROR
        #: frame carries)
        self.message = message
        self.retry_after = retry_after
        super().__init__(f"[{code}] {message}")


class GatewayDraining(GatewayStreamError):
    """The server drained mid-stream (GOAWAY after flushing in-flight).

    :attr:`chunks_flushed` says how many CHUNK frames were delivered
    before the cut, so a client that kept them can resume elsewhere.
    """

    def __init__(self, message: str, chunks_flushed: int = 0):
        self.chunks_flushed = chunks_flushed
        super().__init__(ErrorCode.DRAINING.value, message)


# -- frame encode ------------------------------------------------------


def encode_frame(frame_type: int, payload: bytes) -> bytes:
    """One frame, header included."""
    if len(payload) > MAX_FRAME_BYTES:
        raise GatewayProtocolError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    return _HEADER.pack(int(frame_type), len(payload)) + payload


def encode_json(frame_type: int, obj: dict) -> bytes:
    """A JSON control frame."""
    return encode_frame(
        frame_type, json.dumps(obj, separators=(",", ":")).encode()
    )


def _new_frame(frame_type: int, payload_len: int) -> bytearray:
    """A frame buffer of exactly header + payload bytes, header written.

    The data-plane encoders fill the payload in place and return the
    buffer itself (``StreamWriter.write`` takes any bytes-like), so a
    64 KiB chunk is copied once — column into frame — per encode.
    """
    if payload_len > MAX_FRAME_BYTES:
        raise GatewayProtocolError(
            f"frame payload of {payload_len} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte ceiling"
        )
    frame = bytearray(_HEADER.size + payload_len)
    _HEADER.pack_into(frame, 0, int(frame_type), payload_len)
    return frame


def encode_data(
    seq: int, keys: np.ndarray, payloads: Optional[np.ndarray]
) -> bytearray:
    """A client DATA frame (payload column iff the stream declared one)."""
    keys = np.asarray(keys)
    n = keys.shape[0]
    columns = 1
    if payloads is not None:
        payloads = np.asarray(payloads)
        if payloads.shape[0] != n:
            raise GatewayProtocolError(
                f"payload column length {payloads.shape[0]} != key "
                f"column length {n}"
            )
        columns = 2
    frame = _new_frame(FrameType.DATA, _DATA_PREFIX.size + 4 * columns * n)
    _DATA_PREFIX.pack_into(frame, _HEADER.size, seq, n)
    body = np.frombuffer(
        frame, dtype="<u4", offset=_HEADER.size + _DATA_PREFIX.size
    )
    body[:n] = keys
    if payloads is not None:
        body[n:] = payloads
    return frame


def decode_data(
    payload: bytes, has_payloads: bool
) -> Tuple[int, np.ndarray, Optional[np.ndarray]]:
    """``(seq, keys, payloads-or-None)`` of one DATA frame."""
    if len(payload) < _DATA_PREFIX.size:
        raise GatewayProtocolError("truncated DATA frame")
    seq, n = _DATA_PREFIX.unpack_from(payload)
    columns = 2 if has_payloads else 1
    expected = _DATA_PREFIX.size + columns * 4 * n
    if len(payload) != expected:
        raise GatewayProtocolError(
            f"DATA frame of {len(payload)} bytes does not match "
            f"{n} tuples x {columns} columns"
        )
    keys = np.frombuffer(payload, dtype="<u4", count=n, offset=_DATA_PREFIX.size)
    pays = (
        np.frombuffer(
            payload, dtype="<u4", count=n, offset=_DATA_PREFIX.size + 4 * n
        )
        if has_payloads
        else None
    )
    return seq, keys, pays


def _fill_column(out: np.ndarray, columns: Sequence[np.ndarray]) -> None:
    """Write per-partition arrays into ``out`` as one column.

    Fast path: a :class:`~repro.core.partitioner.PartitionSlices` whose
    backing array is still the exact concatenation of its slices copies
    in one memcpy; anything else concatenates the views.
    """
    contiguous = getattr(columns, "contiguous", None)
    if contiguous is not None:
        column = contiguous()
        if column is not None and column.shape[0] == out.shape[0]:
            out[:] = column
            return
    np.concatenate(list(columns), out=out)


def encode_chunk(
    seq: int,
    counts: np.ndarray,
    keys: Sequence[np.ndarray],
    payloads: Sequence[np.ndarray],
) -> bytearray:
    """A server CHUNK frame from one chunk's per-partition arrays.

    Hot path (once per chunk per stream): the frame is assembled in a
    single preallocated buffer with one copy per column (see
    :func:`_fill_column`) instead of per-partition ``tobytes()``
    copies — at 64 partitions that is 2 C-level calls instead of ~128
    small Python-level ones.
    """
    counts32 = np.ascontiguousarray(counts, dtype="<u4")
    num_partitions = counts32.shape[0]
    n = int(counts32.sum())
    frame = _new_frame(
        FrameType.CHUNK, _DATA_PREFIX.size + 4 * num_partitions + 8 * n
    )
    _DATA_PREFIX.pack_into(frame, _HEADER.size, seq, n)
    body = np.frombuffer(
        frame,
        dtype="<u4",
        offset=_HEADER.size + _DATA_PREFIX.size,
        count=num_partitions + 2 * n,
    )
    body[:num_partitions] = counts32
    if n:
        _fill_column(body[num_partitions:num_partitions + n], keys)
        _fill_column(body[num_partitions + n:], payloads)
    return frame


def decode_chunk(
    payload: bytes, num_partitions: int
) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """``(seq, counts, keys, payloads)`` — key/payload columns are the
    chunk's tuples concatenated in partition order; split with
    ``np.split(column, np.cumsum(counts)[:-1])``."""
    header = _DATA_PREFIX.size + 4 * num_partitions
    if len(payload) < header:
        raise GatewayProtocolError("truncated CHUNK frame")
    seq, n = _DATA_PREFIX.unpack_from(payload)
    counts = np.frombuffer(
        payload, dtype="<u4", count=num_partitions, offset=_DATA_PREFIX.size
    ).astype(np.int64)
    if len(payload) != header + 8 * n or int(counts.sum()) != n:
        raise GatewayProtocolError(
            f"CHUNK frame of {len(payload)} bytes does not match "
            f"{n} tuples across {num_partitions} partitions"
        )
    keys = np.frombuffer(payload, dtype="<u4", count=n, offset=header)
    pays = np.frombuffer(payload, dtype="<u4", count=n, offset=header + 4 * n)
    return seq, counts, keys, pays


# -- frame decode ------------------------------------------------------


async def read_preamble(reader: asyncio.StreamReader) -> int:
    """Validate the connection preamble; returns the peer's version."""
    try:
        raw = await reader.readexactly(len(PREAMBLE))
    except asyncio.IncompleteReadError as exc:
        raise GatewayProtocolError("connection closed before preamble") from exc
    if raw[:4] != MAGIC:
        raise GatewayProtocolError(f"bad magic {raw[:4]!r} (want {MAGIC!r})")
    (version,) = struct.unpack("<I", raw[4:])
    if version != PROTOCOL_VERSION:
        raise GatewayProtocolError(
            f"protocol version {version} unsupported "
            f"(speaks {PROTOCOL_VERSION})"
        )
    return version


async def read_frame(
    reader: asyncio.StreamReader, max_bytes: int = MAX_FRAME_BYTES
) -> Tuple[FrameType, bytes]:
    """Read one frame; raises :class:`asyncio.IncompleteReadError` on
    clean EOF mid-read and :class:`GatewayProtocolError` on garbage."""
    header = await reader.readexactly(_HEADER.size)
    type_byte, length = _HEADER.unpack(header)
    try:
        frame_type = FrameType(type_byte)
    except ValueError as exc:
        raise GatewayProtocolError(f"unknown frame type {type_byte}") from exc
    if length > max_bytes:
        raise GatewayProtocolError(
            f"{frame_type.name} frame of {length} bytes exceeds the "
            f"{max_bytes}-byte ceiling"
        )
    payload = await reader.readexactly(length) if length else b""
    return frame_type, payload


def decode_json(payload: bytes) -> dict:
    """Parse a JSON control-frame payload."""
    try:
        obj = json.loads(payload.decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GatewayProtocolError(f"bad JSON control frame: {exc}") from exc
    if not isinstance(obj, dict):
        raise GatewayProtocolError("control frame payload must be an object")
    return obj
