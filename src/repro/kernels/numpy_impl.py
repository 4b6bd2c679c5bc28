"""Pure-NumPy reference implementations of the hot-path kernels.

These are the vectorised kernels the repo shipped before the native
extension existed, factored behind the same nine-primitive API so the
dispatch layer (:mod:`repro.kernels`) can swap freely between them.
They are the always-available fallback *and* the correctness oracle:
the native kernels must match them byte for byte (tests/test_kernels.py
pins this with hypothesis property tests).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.core.hashing import murmur3_finalizer, partition_function


def _join_buckets(keys: np.ndarray, num_buckets: int) -> np.ndarray:
    """In-table bucket indices: the HIGH bits of the murmur hash.

    The radix join already consumed the LOW hash bits for partitioning,
    so masking the same hash again would collapse every key of a
    partition into ``num_buckets / fan_out`` buckets and degenerate the
    chains into long lists; the top bits are independent of the
    partition index.  Bit-identical to the native kernels' bucket
    computation (31-bit shift clamp included, so ``num_buckets == 1``
    stays defined).
    """
    bits = int(num_buckets).bit_length() - 1
    shift = np.uint32(min(31, 32 - bits))
    hashed = murmur3_finalizer(np.ascontiguousarray(keys, dtype=np.uint32))
    return ((hashed >> shift) & np.uint32(num_buckets - 1)).astype(np.int64)


def hash_histogram(
    keys: np.ndarray,
    num_partitions: int,
    use_hash: bool,
    lanes: Optional[int],
    global_offset: int,
    parts_out: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Fused hash + histogram (+ lane histogram) over one morsel."""
    kernel = partition_function(num_partitions, use_hash)
    parts = kernel(keys, out=parts_out)
    hist = np.bincount(parts, minlength=num_partitions).astype(np.int64)
    lane_hist = None
    if lanes is not None:
        lane = (
            global_offset + np.arange(parts.shape[0], dtype=np.int64)
        ) % lanes
        combined = parts.astype(np.int64) * lanes + lane
        lane_hist = (
            np.bincount(combined, minlength=num_partitions * lanes)
            .astype(np.int64)
            .reshape(num_partitions, lanes)
        )
    return parts, hist, lane_hist


def scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    parts: np.ndarray,
    cursor: np.ndarray,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> None:
    """Stable scatter via a stable argsort (the vectorised equivalent
    of the native sequential cursor loop; identical bytes).

    ``cursor`` holds the per-partition destination bases and is
    advanced past the written tuples, matching the native contract.
    """
    n = parts.shape[0]
    if n == 0:
        return
    num_partitions = cursor.shape[0]
    order = np.argsort(parts, kind="stable")
    sorted_parts = parts[order]
    local_counts = np.bincount(parts, minlength=num_partitions).astype(
        np.int64
    )
    starts = np.zeros(num_partitions, dtype=np.int64)
    np.cumsum(local_counts[:-1], out=starts[1:])
    dest = (
        cursor[sorted_parts]
        - starts[sorted_parts]
        + np.arange(n, dtype=np.int64)
    )
    out_keys[dest] = keys[order]
    out_payloads[dest] = payloads[order]
    cursor += local_counts


def swwc_scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    parts: np.ndarray,
    num_partitions: int,
    buffer_tuples: int,
    cursor: np.ndarray,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> None:
    """Write-combine scatter.  Buffering changes only the write
    schedule, never the destination slots, so the vectorised fallback
    is the plain stable scatter."""
    scatter(keys, payloads, parts, cursor, out_keys, out_payloads)


#: the batch twin packs (request, partition) into uint16 so its stable
#: argsort stays an O(n) radix sort; a larger batch takes several passes
_PACKED_INDEX_LIMIT = 1 << 16


def partition_batch(
    columns: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    num_partitions: int,
    use_hash: bool,
    lanes: int,
    offsets: Sequence[int],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Hash, histogram and stable scatter of every request of a batch;
    returns ``(out_keys, out_payloads, lane_matrix)`` (see
    :func:`repro.kernels.partition_batch`; a ``None`` payload column is
    materialised here as the request's record ids, from its offset).

    Where the native kernel loops over the requests, this twin
    vectorises across them: the columns of up to ``2**16 /
    num_partitions`` requests are concatenated and partitioned
    together, so the group pays one hash evaluation, one histogram and
    one *small-dtype* stable sort — the per-request partition index is
    packed with the request index into a uint16 column, which NumPy
    sorts with an O(n) radix sort instead of one comparison sort per
    request.
    """
    batch = len(columns)
    sizes = np.array([keys.shape[0] for keys, _ in columns], dtype=np.int64)
    offsets = np.asarray(offsets, dtype=np.int64).reshape(batch)
    n = int(sizes.sum())
    out_keys = np.empty(n, dtype=np.uint32)
    out_payloads = np.empty(n, dtype=np.uint32)
    lane_matrix = np.empty((batch, num_partitions, lanes), dtype=np.int64)
    max_group = max(1, _PACKED_INDEX_LIMIT // num_partitions)
    low = 0
    for start in range(0, batch, max_group):
        stop = min(start + max_group, batch)
        high = low + int(sizes[start:stop].sum())
        lane_matrix[start:stop] = _partition_group(
            columns[start:stop],
            sizes[start:stop],
            offsets[start:stop],
            num_partitions,
            use_hash,
            lanes,
            out_keys[low:high],
            out_payloads[low:high],
        )
        low = high
    return out_keys, out_payloads, lane_matrix


def _partition_group(
    columns: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    sizes: np.ndarray,
    offsets: np.ndarray,
    num_partitions: int,
    use_hash: bool,
    lanes: int,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> np.ndarray:
    """One packed-index pass over ≤ ``_PACKED_INDEX_LIMIT / P``
    requests into their shared slice of the outputs; returns the
    group's ``(requests, P, lanes)`` lane matrix."""
    batch = len(columns)
    n = out_keys.shape[0]
    keys = np.concatenate([k for k, _ in columns])
    pays = np.concatenate([
        np.arange(o, o + k.shape[0], dtype=np.uint32) if p is None else p
        for (k, p), o in zip(columns, offsets.tolist())
    ])

    # packed = request * P + partition, in uint16 (radix-sortable); a
    # fan-out beyond 2**16 leaves one request per group and no packing
    packed_dtype = (
        np.uint16 if batch * num_partitions <= _PACKED_INDEX_LIMIT
        else np.int64
    )
    parts = partition_function(num_partitions, use_hash)(
        keys, out=np.empty(n, dtype=packed_dtype)
    )
    packed = np.repeat(
        (np.arange(batch, dtype=np.int64) * num_partitions).astype(
            packed_dtype
        ),
        sizes,
    )
    packed += parts

    # Lane of a tuple is (its request's offset + its index within the
    # request) mod lanes; along the concatenated group that is a cyclic
    # pattern phase-shifted per request.
    starts = np.zeros(batch, dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    base_lane = np.tile(
        np.arange(lanes, dtype=np.uint8), n // lanes + 1
    )[:n]
    shift = np.repeat(((starts - offsets) % lanes).astype(np.uint8), sizes)
    lane = (base_lane - shift) & np.uint8(lanes - 1)
    lane_packed = packed * np.int32(lanes)
    lane_packed += lane
    lane_matrix = np.bincount(
        lane_packed, minlength=batch * num_partitions * lanes
    ).reshape(batch, num_partitions, lanes)

    # One stable scatter orders the whole group by (request,
    # partition); each request's slice is then exactly its own stable
    # sort by partition index.  The destination bases come straight
    # from the (request, partition) histogram, so the group lands in
    # one contiguous slice of the shared output columns.
    cursor = np.zeros(batch * num_partitions, dtype=np.int64)
    np.cumsum(lane_matrix.sum(axis=2).reshape(-1)[:-1], out=cursor[1:])
    scatter(keys, pays, packed, cursor, out_keys, out_payloads)
    return lane_matrix


def copy_runs(
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
    counts: np.ndarray,
    dest: np.ndarray,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> None:
    """Partition-ordered pieces into partition-major columns: each
    piece's tuple ``i`` of run ``p`` goes to ``dest[b, p] + (i -
    start of run p)`` (see :func:`repro.kernels.copy_runs`)."""
    num_partitions = counts.shape[1] if counts.ndim == 2 else 0
    ids = np.arange(num_partitions)
    for (keys, payloads), row, base in zip(columns, counts, dest):
        n = keys.shape[0]
        if n == 0:
            continue
        run_start = np.cumsum(row) - row
        parts = np.repeat(ids, row)
        at = (base - run_start)[parts] + np.arange(n, dtype=np.int64)
        out_keys[at] = keys
        out_payloads[at] = payloads


def bucket_build(
    keys: np.ndarray, num_buckets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Bucket-chaining build: ``(heads, next)`` index arrays.

    Vectorised equivalent of the scalar front-insertion loop: within a
    bucket, tuple i's ``next`` is the previous (lower-index) tuple and
    the head is the bucket's last tuple — identical chains to the
    native kernel's sequential build.
    """
    n = int(keys.shape[0])
    buckets = _join_buckets(keys, num_buckets)
    heads = np.full(num_buckets, -1, dtype=np.int64)
    nxt = np.full(n, -1, dtype=np.int64)
    order = np.argsort(buckets, kind="stable")
    sorted_buckets = buckets[order]
    same_as_prev = np.zeros(n, dtype=bool)
    same_as_prev[1:] = sorted_buckets[1:] == sorted_buckets[:-1]
    prev = np.full(n, -1, dtype=np.int64)
    prev[1:] = np.where(same_as_prev[1:], order[:-1], -1)
    nxt[order] = prev
    is_last = np.ones(n, dtype=bool)
    is_last[:-1] = sorted_buckets[:-1] != sorted_buckets[1:]
    heads[sorted_buckets[is_last]] = order[is_last]
    return heads, nxt


def bucket_probe(
    build_keys: np.ndarray,
    heads: np.ndarray,
    nxt: np.ndarray,
    num_buckets: int,
    probe_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Chain-walk probe in probe-major order.

    The walk itself is vectorised hop by hop (all active probes advance
    one chain hop per iteration); a final stable sort by probe index
    re-orders the matches probe-major — for each probe tuple in input
    order, its matches follow the chain — which is exactly the order
    the native scalar walk emits.
    """
    m = int(probe_keys.shape[0])
    buckets = _join_buckets(probe_keys, num_buckets)
    current = heads[buckets]
    probe_idx_parts = []
    build_idx_parts = []
    hops = 0
    active = np.nonzero(current != -1)[0]
    cursor = current[active]
    while active.size:
        hops += int(active.size)
        matched = build_keys[cursor] == probe_keys[active]
        if matched.any():
            probe_idx_parts.append(active[matched])
            build_idx_parts.append(cursor[matched])
        cursor = nxt[cursor]
        alive = cursor != -1
        active = active[alive]
        cursor = cursor[alive]
    if probe_idx_parts:
        probe_idx = np.concatenate(probe_idx_parts)
        build_idx = np.concatenate(build_idx_parts)
        # Hop-major → probe-major: within a probe, matches appear in
        # ascending hop (= chain) order across the per-hop chunks, so a
        # stable sort by probe index yields exact chain-walk order.
        order = np.argsort(probe_idx, kind="stable")
        return probe_idx[order], build_idx[order], hops
    empty = np.empty(0, dtype=np.int64)
    return empty, empty.copy(), hops


#: each aggregate's fold of one key's rows (``count`` and ``mean`` add
#: counts and sums)
_FOLDS = {"sum": np.add, "count": np.add, "mean": np.add,
          "min": np.minimum, "max": np.maximum}


def join_aggregate(
    r_keys, r_values, r_bounds, s_keys, s_values, s_bounds, p0, p1,
    aggregate, value_side, out_keys, out_values, out_counts,
) -> Tuple[int, int]:
    """Per partition of ``[p0, p1)``: :func:`bucket_build` +
    :func:`bucket_probe`, then the matches grouped by build index with
    :func:`sort_groups` — one row per matched build tuple, in build
    order.  Returns ``(rows, matches)``."""
    rows = matches = 0
    for p in range(p0, p1):
        r_lo, s_lo = int(r_bounds[p]), int(s_bounds[p])
        build = r_keys[r_lo:int(r_bounds[p + 1])]
        num_buckets = max(2, 1 << (build.shape[0] - 1).bit_length())
        heads, nxt = bucket_build(build, num_buckets)
        probe_idx, build_idx, _ = bucket_probe(
            build, heads, nxt, num_buckets, s_keys[s_lo:int(s_bounds[p + 1])]
        )
        counts = np.ones_like(build_idx)
        if aggregate == "count":
            values = np.ones_like(build_idx)
        elif value_side == "s":
            values = s_values[s_lo + probe_idx].astype(np.int64)
        else:
            values = r_values[r_lo + build_idx].astype(np.int64)
        matches += build_idx.shape[0]
        groups = sort_groups(build_idx, values, aggregate, counts)
        end = rows + groups
        out_keys[rows:end] = build[build_idx[:groups]]
        out_values[rows:end] = values[:groups]
        if out_counts is not None:
            out_counts[rows:end] = counts[:groups]
        rows = end
    return rows, matches


def sort_groups(keys, values, aggregate, counts) -> int:
    """Stable argsort by key, then one ``reduceat`` per column over the
    runs of equal keys, written back to the columns' first rows."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(
        np.r_[True, sorted_keys[1:] != sorted_keys[:-1]][: keys.size]
    )
    groups = starts.shape[0]
    keys[:groups] = sorted_keys[starts]
    values[:groups] = _FOLDS[aggregate].reduceat(values[order], starts)
    if counts is not None:
        counts[:groups] = np.add.reduceat(counts[order], starts)
    return groups
