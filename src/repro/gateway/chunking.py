"""Chunked-stream accounting and client-side stitching.

The gateway is the "partitioning in pieces" recipe of
:mod:`repro.core.pieces` carried over a socket: every chunk is
partitioned under the stream's :func:`~repro.core.pieces.piece_config`
with explicit *global-position* payloads, and because the partitioner
is stable, concatenating each partition's tuples across chunks in
arrival order reproduces exactly what one offline
:meth:`FpgaPartitioner.partition` call over the whole stream would have
emitted.

Only the *accounting* (cache-line layout, traffic bytes, PAD overflow)
depends on the global tuple count, which is unknowable until the stream
ends.  :class:`StreamAccounting` is the wire adapter over the shared
:class:`~repro.core.pieces.Accounting`: it folds every chunk in and
serialises the final :class:`~repro.core.pieces.Layout` as the MANIFEST
frame.  :func:`stitch_output` is the client-side inverse: chunk frames +
manifest → a :class:`PartitionedOutput` indistinguishable from the
offline call.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import PartitionedOutput
from repro.core.pieces import Accounting, Layout

__all__ = [
    "StreamAccounting",
    "global_payloads",
    "iter_chunks",
    "stitch_output",
]


def global_payloads(
    payloads: Optional[np.ndarray], offset: int, num_tuples: int
) -> np.ndarray:
    """The payload column a chunk submits: the client's values when the
    stream carries payloads, else the tuples' global input positions —
    exactly what the offline partitioner generates for a bare key array
    (and always, in VRID mode)."""
    if payloads is not None:
        return payloads
    return np.arange(offset, offset + num_tuples, dtype=np.uint32)


def iter_chunks(
    keys: np.ndarray,
    payloads: Optional[np.ndarray],
    chunk_tuples: int,
) -> "Sequence[Tuple[np.ndarray, Optional[np.ndarray]]]":
    """Slice one in-memory relation into stream chunks (test/bench aid)."""
    if chunk_tuples <= 0:
        raise ValueError(f"chunk_tuples must be > 0, got {chunk_tuples}")
    chunks = []
    for start in range(0, len(keys), chunk_tuples):
        stop = start + chunk_tuples
        chunks.append(
            (
                keys[start:stop],
                None if payloads is None else payloads[start:stop],
            )
        )
    return chunks


class StreamAccounting:
    """Server-side global accounting of one stream, chunk by chunk."""

    def __init__(self, config: PartitionerConfig, on_overflow: str = "raise"):
        self.config = config
        self.on_overflow = on_overflow
        self.chunks = 0
        self._accounting = Accounting(config)

    @property
    def tuples(self) -> int:
        """Tuples observed so far."""
        return self._accounting.tuples

    def observe(self, keys: np.ndarray) -> int:
        """Fold one chunk in; returns the chunk's global tuple offset."""
        self.chunks += 1
        return self._accounting.observe(keys)

    def finalize(self) -> dict:
        """The MANIFEST payload: global layout + traffic accounting.

        Raises :class:`PartitionOverflowError` when a PAD stream under
        the ``"raise"`` policy overflowed — the server turns that into
        a structured ERROR frame, matching the offline call's raise.
        Under ``"hist"`` the chunk data is already HIST-identical; only
        the accounting switches mode.
        """
        layout = self._accounting.finalize(self.on_overflow)
        return {
            "chunks": self.chunks,
            "tuples": self.tuples,
            **layout.to_dict(),
        }


def stitch_output(
    manifest: dict,
    chunks: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    produced_by: str = "gateway",
    degraded: bool = False,
) -> PartitionedOutput:
    """Assemble the stream's :class:`PartitionedOutput` client-side.

    ``chunks`` are the decoded CHUNK frames **in sequence order**:
    ``(counts, keys, payloads)`` with both columns concatenated in
    partition order.  Stability of the partitioner guarantees that
    per-partition concatenation across chunks in stream order equals
    the offline single-call output byte for byte.
    """
    layout = Layout.from_dict(manifest)
    num_partitions = layout.config.num_partitions
    empty = np.empty(0, dtype=np.uint32)
    slices_keys: List[List[np.ndarray]] = [[] for _ in range(num_partitions)]
    slices_pays: List[List[np.ndarray]] = [[] for _ in range(num_partitions)]
    for counts, keys, pays in chunks:
        bounds = np.zeros(num_partitions + 1, dtype=np.int64)
        np.cumsum(counts, out=bounds[1:])
        for p in range(num_partitions):
            if counts[p]:
                slices_keys[p].append(keys[bounds[p]:bounds[p + 1]])
                slices_pays[p].append(pays[bounds[p]:bounds[p + 1]])
    partition_keys = [
        np.concatenate(parts) if parts else empty for parts in slices_keys
    ]
    partition_payloads = [
        np.concatenate(parts) if parts else empty for parts in slices_pays
    ]
    stitched = np.asarray([k.shape[0] for k in partition_keys], dtype=np.int64)
    if not np.array_equal(layout.counts, stitched):
        raise ValueError(
            "stitched partition sizes disagree with the manifest "
            "(missing or reordered chunk frames?)"
        )
    return PartitionedOutput.from_layout(
        layout,
        partition_keys,
        partition_payloads,
        produced_by=produced_by,
        fell_back_to_cpu=degraded,
    )
