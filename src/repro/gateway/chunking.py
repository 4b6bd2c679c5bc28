"""Chunked-stream accounting and client-side stitching.

The gateway is the "partitioning in pieces" recipe of
:mod:`repro.core.pieces` carried over a socket: every chunk is a piece
request — partitioned under the stream's
:func:`~repro.core.pieces.piece_config` at its *global* offset, so its
generated record ids are global positions — and because the
partitioner is stable, concatenating each partition's tuples across
chunks in arrival order reproduces exactly what one offline
:meth:`FpgaPartitioner.partition` call over the whole stream would have
emitted.

Only the *accounting* (cache-line layout, traffic bytes, PAD overflow)
depends on the global tuple count, which is unknowable until the stream
ends.  :class:`StreamAccounting` is the wire adapter over the shared
:class:`~repro.core.pieces.Accounting`: the server reserves each
chunk's offset as it arrives, folds in the lane histogram the chunk's
partitioning returned, and serialises the final
:class:`~repro.core.pieces.Layout` as the MANIFEST frame.
:func:`stitch_output` is the client-side inverse: chunk frames +
manifest → a :class:`PartitionedOutput` indistinguishable from the
offline call, each frame's partition runs copied by
:func:`~repro.core.pieces.partition_major` into one pair of columns —
the in-process partitioner's shape.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import PartitionedOutput, PartitionSlices
from repro.core.pieces import Accounting, Layout, partition_major

__all__ = [
    "StreamAccounting",
    "global_payloads",
    "iter_chunks",
    "stitch_output",
]


def global_payloads(
    payloads: Optional[np.ndarray], offset: int, num_tuples: int
) -> np.ndarray:
    """The payload column a chunk's tuples carry: the client's values
    when the stream carries payloads, else the tuples' global input
    positions — exactly what the offline partitioner generates for a
    bare key array (and always, in VRID mode), and what a piece request
    at ``offset`` writes itself."""
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
        """Tuples reserved so far."""
        return self._accounting.tuples

    def reserve(self, tuples: int) -> int:
        """Admit one chunk of ``tuples`` without hashing it; returns its
        global tuple offset.  Its lane histogram, counted from there,
        is :meth:`fold`-ed in when its partitioning comes back."""
        self.chunks += 1
        return self._accounting.reserve(tuples)

    def fold(self, lane_counts: np.ndarray) -> None:
        """Add a reserved chunk's ``(partition, lane)`` histogram — a
        piece output's ``lane_counts``."""
        self._accounting.fold(lane_counts)

    def observe(self, keys: np.ndarray) -> int:
        """:meth:`reserve` and :meth:`fold` with the histogram computed
        here (one hash pass); returns the chunk's global tuple offset."""
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
    partition order, so a frame is one run per partition, ``counts``
    long.  :func:`partition_major` copies every run into one pair of
    columns (one memcpy per run and column); stability of the
    partitioner guarantees that per-partition concatenation across
    chunks in stream order equals the offline single-call output byte
    for byte.
    """
    layout = Layout.from_dict(manifest)
    num_partitions = layout.config.num_partitions
    counts = np.array([chunk[0] for chunk in chunks], dtype=np.int64)
    counts = counts.reshape(-1, num_partitions)
    if not np.array_equal(layout.counts, counts.sum(axis=0)):
        raise ValueError(
            "stitched partition sizes disagree with the manifest "
            "(missing or reordered chunk frames?)"
        )
    tuples = int(layout.counts.sum())
    out_keys = np.empty(tuples, dtype=np.uint32)
    out_payloads = np.empty(tuples, dtype=np.uint32)
    bounds = partition_major(
        ((keys, pays, None) for _, keys, pays in chunks),
        counts,
        out_keys,
        out_payloads,
    )
    return PartitionedOutput.from_layout(
        layout,
        PartitionSlices(out_keys, bounds),
        PartitionSlices(out_payloads, bounds),
        produced_by=produced_by,
        fell_back_to_cpu=degraded,
    )
