"""Software-managed write-combine buffer partitioning (Code 2).

The fast CPU algorithm ([3, 30, 38], Section 3.1): each thread keeps
one cache-line-sized buffer per partition in L1; tuples accumulate in
the buffers and a full buffer is flushed to its destination with
non-temporal stores, so the scattered writes never touch the caches and
never trigger read-for-ownership traffic.

The implementation is *functionally faithful* — it reproduces the exact
output arrangement the C implementation produces (per-thread chunks,
per-partition destinations from a two-level histogram prefix sum,
buffer-flush granularity preserved in the write ordering) — while the
inner loop is vectorised NumPy rather than a tuple-at-a-time loop.  The
buffer mechanics (fills, flushes, the final partial-buffer drain) are
accounted in :class:`SwwcStats` so tests can verify e.g. that flush
counts equal ``floor(count / buffer_tuples)`` per partition and that
the non-temporal write volume equals the relation size.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro import kernels
from repro.constants import CACHE_LINE_BYTES
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.exec.engine import ExecutionEngine


@dataclasses.dataclass
class SwwcStats:
    """Mechanical counters of the buffered scatter."""

    threads: int
    buffer_tuples: int
    tuple_bytes: int = 8
    full_buffer_flushes: int = 0
    partial_buffer_flushes: int = 0
    tuples_written: int = 0
    histogram_passes: int = 1

    @property
    def non_temporal_bytes(self) -> int:
        """Bytes streamed to memory by buffer flushes."""
        return self.tuples_written * self.tuple_bytes


def _thread_chunks(n: int, threads: int) -> List[Tuple[int, int]]:
    """Contiguous per-thread input ranges (morsel = n/threads)."""
    base = n // threads
    extra = n % threads
    chunks = []
    start = 0
    for t in range(threads):
        size = base + (1 if t < extra else 0)
        chunks.append((start, start + size))
        start += size
    return chunks


def swwc_partition(
    keys: np.ndarray,
    payloads: np.ndarray,
    num_partitions: int,
    use_hash: bool = False,
    threads: int = 1,
    tuple_bytes: int = 8,
    buffer_tuples: Optional[int] = None,
    engine: Optional["ExecutionEngine"] = None,
) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray, SwwcStats]:
    """Single-pass partitioning with software-managed buffers.

    Phases, exactly as in the parallel C implementation:

    1. every thread scans its chunk and builds a local histogram;
    2. a two-level prefix sum assigns every (thread, partition) pair a
       disjoint destination range — this is the synchronisation-free
       property the histogram exists for;
    3. every thread re-scans its chunk and scatters through its L1
       buffers into the destination ranges.

    When ``engine`` is given (an
    :class:`~repro.exec.engine.ExecutionEngine`), phases 1 and 3 are
    executed by the engine's worker pool using the same per-thread
    chunk boundaries, so the output is byte-identical to the serial
    path; the buffer-mechanics accounting is reconstructed from the
    per-chunk histograms the engine hands back.

    Returns:
        (partition_keys, partition_payloads, counts, stats).  Within a
        partition, thread 0's tuples precede thread 1's, and within a
        thread input order is preserved — the same arrangement the C
        code produces.
    """
    if threads < 1:
        raise ConfigurationError(f"threads must be >= 1, got {threads}")
    keys = np.ascontiguousarray(keys, dtype=np.uint32)
    payloads = np.ascontiguousarray(payloads, dtype=np.uint32)
    if keys.shape != payloads.shape:
        raise ConfigurationError("keys and payloads must align")
    n = int(keys.shape[0])
    if buffer_tuples is None:
        buffer_tuples = max(1, CACHE_LINE_BYTES // tuple_bytes)

    chunks = _thread_chunks(n, threads)
    stats = SwwcStats(
        threads=threads, buffer_tuples=buffer_tuples, tuple_bytes=tuple_bytes
    )

    if engine is not None:
        # Delegate phases 1-3 to the morsel engine with the exact same
        # chunk boundaries; identical two-level prefix sum => identical
        # destination ranges => byte-identical output.
        task = engine.begin_partition(
            keys, payloads, num_partitions, use_hash, chunks=chunks
        )
        try:
            counts = task.counts
            local_hist = np.asarray(task.chunk_hists, dtype=np.int64)
            out_keys, out_payloads = task.scatter()
        finally:
            task.close()
        for t, (lo, hi) in enumerate(chunks):
            if hi <= lo:
                continue
            chunk_counts = local_hist[t]
            stats.full_buffer_flushes += int(
                (chunk_counts // buffer_tuples).sum()
            )
            stats.partial_buffer_flushes += int(
                ((chunk_counts % buffer_tuples) > 0).sum()
            )
            stats.tuples_written += int(hi - lo)
        boundaries = np.zeros(num_partitions + 1, dtype=np.int64)
        np.cumsum(counts, out=boundaries[1:])
        partition_keys = [
            out_keys[boundaries[p] : boundaries[p + 1]]
            for p in range(num_partitions)
        ]
        partition_payloads = [
            out_payloads[boundaries[p] : boundaries[p + 1]]
            for p in range(num_partitions)
        ]
        return partition_keys, partition_payloads, counts, stats

    # Phase 1: per-thread partition indices + histograms, through the
    # fused kernel (native: one GIL-free C pass per chunk).
    parts = np.empty(n, dtype=kernels.parts_dtype(num_partitions))
    local_hist = np.zeros((threads, num_partitions), dtype=np.int64)
    for t, (lo, hi) in enumerate(chunks):
        if hi > lo:
            _, local_hist[t], _ = kernels.hash_histogram(
                keys[lo:hi],
                num_partitions,
                use_hash,
                parts_out=parts[lo:hi],
            )

    # Phase 2: two-level prefix sum -> per-(thread, partition) bases.
    counts = local_hist.sum(axis=0)
    partition_base = np.zeros(num_partitions, dtype=np.int64)
    np.cumsum(counts[:-1], out=partition_base[1:])
    # within a partition, threads stack in id order
    thread_offsets = np.zeros((threads, num_partitions), dtype=np.int64)
    np.cumsum(local_hist[:-1], axis=0, out=thread_offsets[1:])
    dest_base = partition_base[None, :] + thread_offsets

    # Phase 3: buffered scatter — the SWWC primitive itself: tuples
    # stream through cache-line buffers and land at the preassigned
    # destinations (byte-identical to a stable scatter).
    out_keys = np.empty(n, dtype=np.uint32)
    out_payloads = np.empty(n, dtype=np.uint32)
    for t, (lo, hi) in enumerate(chunks):
        if hi <= lo:
            continue
        # threads > 1 engages the native partition-parallel flush: the
        # chunk's partitions are split across pthreads, each owning its
        # cursors, so the bytes match the single-threaded flush.
        kernels.swwc_scatter(
            keys[lo:hi],
            payloads[lo:hi],
            parts[lo:hi],
            dest_base[t],
            num_partitions,
            buffer_tuples,
            out_keys,
            out_payloads,
            threads=threads,
        )
        # Buffer mechanics accounting (full flushes + final drain).
        chunk_counts = local_hist[t]
        stats.full_buffer_flushes += int((chunk_counts // buffer_tuples).sum())
        stats.partial_buffer_flushes += int(
            ((chunk_counts % buffer_tuples) > 0).sum()
        )
        stats.tuples_written += int(hi - lo)

    boundaries = np.zeros(num_partitions + 1, dtype=np.int64)
    np.cumsum(counts, out=boundaries[1:])
    partition_keys = [
        out_keys[boundaries[p] : boundaries[p + 1]]
        for p in range(num_partitions)
    ]
    partition_payloads = [
        out_payloads[boundaries[p] : boundaries[p + 1]]
        for p in range(num_partitions)
    ]
    return partition_keys, partition_payloads, counts, stats
