"""Compiled hot-path kernels with a NumPy fallback.

The nine inner primitives of the partitioning data plane — fused hash +
radix histogram, stable scatter, SWWC buffered flush, fused batch
partition, bucket-chaining build and probe, fused join + aggregate over
a partition range, the group sort and the run copy — each exactly one
Python function between its caller and one of two interchangeable
backends:

* **native** — a small C library (``_native.c``) compiled on demand
  with the system compiler, loaded by :mod:`repro.kernels.native` and
  called straight through ctypes with raw addresses.  Every call
  releases the GIL, so the execution engine's thread backend runs the
  kernels genuinely in parallel; single-thread the fused loops beat
  NumPy dispatch by avoiding intermediates entirely.
* **numpy** — the original vectorised implementations
  (:mod:`repro.kernels.numpy_impl`), always available, bit-exact with
  the native kernels by test.

Backend selection (``REPRO_KERNELS`` environment variable, read at
first kernel use):

* ``auto`` (default) — try the native build; fall back to NumPy
  silently if there is no compiler or the build fails.
* ``native`` — require the native kernels; raise
  :class:`~repro.kernels.build.KernelBuildError` if they cannot be
  built/loaded (CI uses this to catch silent fallbacks).
* ``numpy`` — force the fallback (also the escape hatch if a platform
  miscompiles the kernels).

Tests can switch backends at runtime with :func:`set_backend` /
:func:`using_backend`; the switch is process-global.

Each primitive checks its arguments (one rule set for both backends),
allocates its outputs once and asks :func:`_eligible` whether the call
can run in C: contiguous ``uint32`` columns, a :func:`parts_dtype`
index column and contiguous ``int64`` index/accumulator columns.  Anything else — notably ``uint64`` keys for 16 B tuples
— takes the NumPy twin for that call, so callers never need to care.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Iterable, Optional, Sequence, Tuple

import numpy as np

from repro.core.hashing import fanout_bits
from repro.errors import ConfigurationError
from repro.kernels import numpy_impl
from repro.kernels.build import (  # noqa: F401  (re-exported)
    KernelBuildError,
    build_native,
    library_path,
)

__all__ = [
    "KernelBuildError",
    "backend_name",
    "bucket_build",
    "bucket_probe",
    "build_native",
    "copy_runs",
    "hash_histogram",
    "join_aggregate",
    "library_path",
    "native_available",
    "partition_batch",
    "parts_dtype",
    "set_backend",
    "sort_groups",
    "stable_scatter",
    "swwc_scatter",
    "using_backend",
]

_VALID_MODES = ("auto", "native", "numpy")

_lock = threading.RLock()  # backend_name holds it across native_available
_lib = None          # the symbol table of repro.kernels.native.load
_backend: Optional[str] = None   # "native" | "numpy" once resolved
_load_error: Optional[str] = None

#: SWWC buffering pays off while the buffer pool stays cache resident;
#: past this fan-out the plain cursor scatter wins (pool > L2).
SWWC_MAX_PARTITIONS = 1 << 13


def parts_dtype(num_partitions: int) -> np.dtype:
    """Smallest dtype holding partition indices for a fan-out."""
    if num_partitions <= 1 << 8:
        return np.dtype(np.uint8)
    if num_partitions <= 1 << 16:
        return np.dtype(np.uint16)
    return np.dtype(np.int64)


#: C symbol suffix per partition-index dtype: the library holds one
#: variant of each per-dtype kernel for every dtype :func:`parts_dtype`
#: returns, and nothing else
_PART_SUFFIX = {
    np.dtype(np.uint8): "u8",
    np.dtype(np.uint16): "u16",
    np.dtype(np.int64): "i64",
}


def backend_name() -> str:
    """The active backend, ``"native"`` or ``"numpy"``: resolved once,
    honouring ``REPRO_KERNELS``."""
    global _backend
    if _backend is not None:
        return _backend
    mode = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
    if mode not in _VALID_MODES:
        raise KernelBuildError(
            f"REPRO_KERNELS must be one of {_VALID_MODES}, got {mode!r}"
        )
    with _lock:
        if _backend is not None:
            return _backend
        if mode != "numpy" and native_available():
            _backend = "native"
        elif mode == "native":
            raise KernelBuildError(f"native kernels unavailable: {_load_error}")
        else:
            _backend = "numpy"
        return _backend


def native_available() -> bool:
    """True when the native kernels are built, loaded and active-able;
    loads the symbol table on first success, records why on failure."""
    global _lib, _load_error
    with _lock:
        if _lib is None:
            from repro.kernels.native import load

            try:
                _lib = load(_PART_SUFFIX)
            except KernelBuildError as error:
                _load_error = str(error)
                return False
    return True


def load_error() -> Optional[str]:
    """Why the native kernels failed to load (None when they did not)."""
    backend_name()
    return _load_error


def set_backend(name: str) -> str:
    """Force the backend (process-global); returns the previous one.

    ``"native"`` raises :class:`KernelBuildError` when the native
    library cannot be built or loaded — never a silent fallback.
    """
    global _backend
    if name not in ("native", "numpy"):
        raise KernelBuildError(
            f"backend must be 'native' or 'numpy', got {name!r}"
        )
    previous = backend_name()
    if name == "native" and not native_available():
        raise KernelBuildError(f"native kernels unavailable: {_load_error}")
    _backend = name
    return previous


@contextlib.contextmanager
def using_backend(name: str):
    """Context manager form of :func:`set_backend` (test helper)."""
    previous = set_backend(name)
    try:
        yield
    finally:
        set_backend(previous)


def _eligible(
    columns: Iterable[np.ndarray],
    parts: Optional[np.ndarray] = None,
    indices: Iterable[np.ndarray] = (),
) -> bool:
    """The one native-eligibility rule.

    True when the native backend is active, every array of ``columns``
    is a contiguous ``uint32`` column, ``parts`` (when given) is a
    contiguous partition-index column of a dtype the library has, and
    every array of ``indices`` is a contiguous ``int64`` column (a
    ``None`` there is an absent optional column).
    """
    if backend_name() != "native":
        return False
    for column in columns:
        if column.dtype != np.uint32 or not column.flags.c_contiguous:
            return False
    for index in indices:
        if index is None:
            continue
        if index.dtype != np.int64 or not index.flags.c_contiguous:
            return False
    return parts is None or (
        parts.dtype in _PART_SUFFIX and parts.flags.c_contiguous
    )


def _check_fanout(num_partitions: int, lanes: Optional[int]) -> None:
    """The fan-out and lane rules, the same on both backends: a power of
    two ≥ 2 (:func:`~repro.core.hashing.fanout_bits`, the repo-wide
    rule), and ``None`` or a positive power of two."""
    fanout_bits(num_partitions)
    if lanes is not None and (lanes < 1 or lanes & (lanes - 1)):
        raise ConfigurationError(
            f"lanes must be a positive power of two, got {lanes}"
        )


# ----------------------------------------------------------------------
# The nine primitives
# ----------------------------------------------------------------------

def hash_histogram(
    keys: np.ndarray,
    num_partitions: int,
    use_hash: bool,
    lanes: Optional[int] = None,
    global_offset: int = 0,
    parts_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Primitive 1: partition indices + histogram(s) of one morsel.

    Returns ``(parts, hist, lane_hist)``: the indices (in ``parts_out``,
    default a fresh :func:`parts_dtype` column), the ``int64``
    per-partition counts and, when ``lanes`` is given, the
    ``(num_partitions, lanes)`` counts with ``lane = (global_offset +
    i) % lanes`` — the FPGA circuit's lane assignment — else None.
    ``num_partitions`` must be a power of two ≥ 2 and ``lanes`` a
    positive power of two.
    """
    _check_fanout(num_partitions, lanes)
    if parts_out is None:
        parts_out = np.empty(keys.shape[0], dtype=parts_dtype(num_partitions))
    if not _eligible((keys,), parts_out):
        return numpy_impl.hash_histogram(
            keys, num_partitions, use_hash, lanes, global_offset, parts_out
        )
    hist = np.zeros(num_partitions, dtype=np.int64)
    lane_hist = None
    if lanes is not None:
        lane_hist = np.zeros((num_partitions, lanes), dtype=np.int64)
    _lib["hash_hist"][parts_out.dtype](
        keys.ctypes.data,
        keys.shape[0],
        num_partitions,
        1 if use_hash else 0,
        lanes or 0,
        global_offset,
        parts_out.ctypes.data,
        hist.ctypes.data,
        None if lane_hist is None else lane_hist.ctypes.data,
    )
    return parts_out, hist, lane_hist


def stable_scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    parts: np.ndarray,
    dest_base: np.ndarray,
    num_partitions: int,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
    groups: Optional[np.ndarray] = None,
) -> None:
    """Primitive 2: stable scatter of one morsel into shared outputs.

    Input order is kept within each partition, so the bytes equal a
    stable sort by partition index.  ``dest_base`` (one row of the
    two-level prefix sum, length ≥ ``num_partitions``) is *not*
    modified — the kernel advances a private cursor copy — so a caller
    can re-use the row.

    ``groups`` (``int64``, one entry per partition index) routes
    partition ``p`` to destination group ``groups[p]`` instead: tuple
    ``i`` goes to ``cursor[groups[parts[i]]]``, the bytes of a stable
    sort by ``groups[parts]``, and ``dest_base`` / ``num_partitions``
    count groups.  This is how the router scatters by shard without a
    per-tuple shard column.
    """
    cursor = np.ascontiguousarray(dest_base, dtype=np.int64).copy()
    if groups is not None:
        groups = np.ascontiguousarray(groups, dtype=np.int64)
        if groups.size and (groups.min() < 0 or groups.max() >= cursor.size):
            raise ConfigurationError(
                f"groups must lie in [0, {cursor.size}), the dest_base slots"
            )
    if not _eligible((keys, payloads, out_keys, out_payloads), parts):
        if groups is not None:
            # the twin sorts the per-tuple group column: in the
            # narrowest dtype that holds a group, that is a radix sort
            parts = groups.astype(parts_dtype(cursor.size))[parts]
        numpy_impl.scatter(
            keys, payloads, parts, cursor, out_keys, out_payloads
        )
        return
    inputs = (keys.ctypes.data, payloads.ctypes.data, parts.ctypes.data)
    outputs = (
        keys.shape[0], cursor.ctypes.data,
        out_keys.ctypes.data, out_payloads.ctypes.data,
    )
    if groups is None:
        _lib["scatter"][parts.dtype](*inputs, *outputs)
    else:
        _lib["scatter_grouped"][parts.dtype](
            *inputs, groups.ctypes.data, *outputs
        )


def swwc_scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    parts: np.ndarray,
    dest_base: np.ndarray,
    num_partitions: int,
    buffer_tuples: int,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
    threads: int = 1,
) -> None:
    """Primitive 3: the scatter driven through software write-combine
    buffers (Code 2) — cache-line batched writes, byte-identical output
    to :func:`stable_scatter`.

    ``threads > 1`` (native backend only) splits the fan-out into one
    contiguous partition range per thread and flushes the ranges in
    parallel; each cursor has a single owner, so the result stays
    byte-identical.  Past :data:`SWWC_MAX_PARTITIONS`, or when the
    buffer pool cannot be allocated, the native path is the plain
    cursor scatter.  The NumPy fallback ignores ``threads``.
    """
    cursor = np.ascontiguousarray(dest_base, dtype=np.int64).copy()
    if not _eligible((keys, payloads, out_keys, out_payloads), parts):
        numpy_impl.swwc_scatter(
            keys, payloads, parts, num_partitions, buffer_tuples, cursor,
            out_keys, out_payloads,
        )
        return
    inputs = (
        keys.ctypes.data, payloads.ctypes.data, parts.ctypes.data,
        keys.shape[0],
    )
    outputs = (
        cursor.ctypes.data, out_keys.ctypes.data, out_payloads.ctypes.data,
    )
    if num_partitions <= SWWC_MAX_PARTITIONS:
        # the threaded entry point runs the serial flush for threads
        # <= 1; a non-zero status means no buffer pool (nothing written)
        status = _lib["swwc_scatter_mt"][parts.dtype](
            *inputs, num_partitions, buffer_tuples, int(threads), *outputs
        )
        if status == 0:
            return
    _lib["scatter"][parts.dtype](*inputs, *outputs)


def partition_batch(
    columns: Sequence[Tuple[np.ndarray, Optional[np.ndarray]]],
    num_partitions: int,
    use_hash: bool,
    lanes: int,
    offsets: Optional[Sequence[Optional[int]]] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Primitive 4: primitives 1 and 2 over every request of a batch.

    ``columns`` holds one ``(keys, payloads)`` pair per request (empty
    requests allowed); the inputs are only read.  An ``int`` entry of
    ``offsets`` marks a *piece request*: the global input position of
    its first tuple in a longer run; ``None`` (the default) is a whole
    run from position ``0``.  A ``None`` payload column means generated
    record ids ``offset + i`` — the virtual record ids the circuit
    appends itself (Section 4.5) — written by the kernel; the caller
    keeps them below the reserved dummy payload.  Returns ``(out_keys,
    out_payloads, counts, lines, lane_rows)``: one shared pair of fresh
    ``uint32`` columns in which request ``r`` owns the slice
    ``[sum(sizes[:r]), sum(sizes[:r + 1]))``, stable-sorted by
    partition index — the bytes :func:`hash_histogram` +
    :func:`stable_scatter` produce for that request alone; every
    request's ``(batch, num_partitions)`` ``int64`` tuples and cache
    lines (Σ over lanes of ⌈lane count / lanes⌉: a line holds one tuple
    per lane); and each piece request's ``(num_partitions, lanes)``
    :func:`hash_histogram` with ``global_offset=offset``.

    Natively this is one foreign call (one GIL release) per batch with
    no input concatenation; a batch holding any non-``uint32`` or
    non-contiguous column takes the NumPy twin, which is also the only
    path without a compiler.
    """
    _check_fanout(num_partitions, lanes)
    for keys, payloads in columns:
        if keys.ndim != 1 or (
            payloads is not None and keys.shape != payloads.shape
        ):
            raise ConfigurationError("keys and payloads must align")
    batch = len(columns)
    if offsets is None:
        offsets = [None] * batch
    # -1 marks a whole run, in the kernel's table and the twin alike
    marks = [-1 if offset is None else offset for offset in offsets]
    if len(marks) != batch or min(marks, default=0) < -1 or -1 in offsets:
        raise ConfigurationError(
            "offsets must be one non-negative position or None per request"
        )
    if not _eligible(
        [array for pair in columns for array in pair if array is not None]
    ):
        return numpy_impl.partition_batch(
            columns, num_partitions, use_hash, lanes, marks
        )
    sizes = [keys.shape[0] for keys, _ in columns]
    # Few, wide buffers: ``ndarray.ctypes.data`` costs about as much as
    # partitioning 200 tuples, so the call takes four addresses plus
    # the one or two per request it cannot avoid.  The table holds raw
    # pointers; ``columns`` keeps them alive.
    table = np.array(
        sizes
        + [keys.ctypes.data for keys, _ in columns]
        + [
            0 if payloads is None else payloads.ctypes.data
            for _, payloads in columns
        ]
        + marks,
        dtype=np.intp,
    )
    n = sum(sizes)
    pieces = batch - marks.count(-1)
    parts = np.empty(max(sizes, default=0), dtype=parts_dtype(num_partitions))
    out = np.empty(2 * n, dtype=np.uint32)
    grid = np.empty((2, batch, num_partitions), dtype=np.int64)
    # cursor and lane scratch, then the pieces' lane rows: apart from
    # the counts and lines, which the outputs keep
    row = num_partitions * (1 + lanes)
    lane_acc = np.zeros(row + num_partitions * lanes * pieces, dtype=np.int64)
    _lib["partition_batch"][parts.dtype](
        table.ctypes.data,
        batch,
        num_partitions,
        1 if use_hash else 0,
        lanes,
        parts.ctypes.data,
        out.ctypes.data,
        grid.ctypes.data,
        lane_acc.ctypes.data,
    )
    lane_rows = lane_acc[row:].reshape(pieces, num_partitions, lanes)
    return out[:n], out[n:], grid[0], grid[1], lane_rows


def bucket_build(
    keys: np.ndarray, num_buckets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Primitive 5: bucket-chaining join build → ``(heads, next)``.

    Chains are identical across backends: head = the bucket's last
    tuple, ``next`` pointing to earlier ones (scalar front-insertion
    order).  Buckets come from the murmur in-table hash.
    """
    if not _eligible((keys,)):
        return numpy_impl.bucket_build(keys, num_buckets)
    heads = np.empty(num_buckets, dtype=np.int64)
    nxt = np.empty(keys.shape[0], dtype=np.int64)
    _lib["bucket_build"](
        keys.ctypes.data,
        keys.shape[0],
        num_buckets,
        heads.ctypes.data,
        nxt.ctypes.data,
    )
    return heads, nxt


def bucket_probe(
    build_keys: np.ndarray,
    heads: np.ndarray,
    nxt: np.ndarray,
    num_buckets: int,
    probe_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Primitive 6: chain-walk probe → ``(probe_idx, build_idx, hops)``.

    Emission is probe-major on both backends — for each probe tuple in
    input order, its matches follow the chain — so the match ordering
    (and everything derived from it: payload pairs, aggregation input
    order) is backend-invariant.  The native walk runs the whole probe
    in one GIL-free call; its output capacity carries 25% headroom over
    the probe count so near-1:1 joins finish in one walk, and if the
    true match count still exceeds it, the kernel reports the count and
    the walk re-runs once with exact-size buffers.
    """
    if not _eligible((build_keys, probe_keys), indices=(heads, nxt)):
        return numpy_impl.bucket_probe(
            build_keys, heads, nxt, num_buckets, probe_keys
        )
    m = int(probe_keys.shape[0])
    capacity = m + m // 4 + 64
    hops = np.zeros(1, dtype=np.int64)
    while True:
        out_probe = np.empty(capacity, dtype=np.int64)
        out_build = np.empty(capacity, dtype=np.int64)
        count = _lib["bucket_probe"](  # restype int64: a Python int
            build_keys.ctypes.data,
            heads.ctypes.data,
            nxt.ctypes.data,
            num_buckets,
            probe_keys.ctypes.data,
            m,
            out_probe.ctypes.data,
            out_build.ctypes.data,
            capacity,
            hops.ctypes.data,
        )
        if count <= capacity:
            return out_probe[:count], out_build[:count], int(hops[0])
        capacity = count


#: the C fold code per aggregate (``mean`` folds sums, ``count`` counts)
_FOLD = {"sum": 0, "mean": 0, "count": 1, "min": 2, "max": 3}


def join_aggregate(
    r_keys: np.ndarray, r_values: np.ndarray, r_bounds: np.ndarray,
    s_keys: np.ndarray, s_values: np.ndarray, s_bounds: np.ndarray,
    p0: int, p1: int, aggregate: str, value_side: str,
    out_keys: np.ndarray, out_values: np.ndarray,
    out_counts: Optional[np.ndarray] = None,
) -> Tuple[int, int]:
    """Primitive 7: build + probe + aggregate over partitions ``[p0,
    p1)`` of scattered build (``r_*``) and probe (``s_*``) columns,
    partition ``p`` being ``[bounds[p], bounds[p + 1])`` → ``(rows,
    matches)``.  Each matched build tuple yields one row, in build
    order, at the front of the outputs: its key, the exact ``int64``
    ``aggregate`` of its matches' ``value_side`` (``"r"``/``"s"``)
    values and (into ``out_counts``, if given) its match count.
    """
    if not _eligible(
        (r_keys, r_values, s_keys, s_values, out_keys),
        indices=(r_bounds, s_bounds, out_values, out_counts),
    ):
        return numpy_impl.join_aggregate(
            r_keys, r_values, r_bounds, s_keys, s_values, s_bounds,
            p0, p1, aggregate, value_side, out_keys, out_values, out_counts,
        )
    matches = np.zeros(1, dtype=np.int64)
    rows = _lib["join_aggregate"](
        r_keys.ctypes.data, r_values.ctypes.data, r_bounds.ctypes.data,
        s_keys.ctypes.data, s_values.ctypes.data, s_bounds.ctypes.data,
        p0, p1, _FOLD[aggregate], 1 if value_side == "s" else 0,
        out_keys.ctypes.data, out_values.ctypes.data,
        None if out_counts is None else out_counts.ctypes.data,
        matches.ctypes.data,
    )
    if rows < 0:
        raise MemoryError("join_aggregate: no memory for the hash table")
    return rows, int(matches[0])


def sort_groups(
    keys: np.ndarray,
    values: np.ndarray,
    aggregate: str,
    counts: Optional[np.ndarray] = None,
) -> int:
    """Primitive 8: stable sort of group rows by key *in place*, equal
    keys folded (values add, or keep the ``min``/``max``; ``counts``
    add) → the group count; the groups are each column's first rows.

    Natively one LSD radix sort of ``uint32`` keys with ``int64``
    columns; other dtypes take the twin (a stable argsort).
    """
    if not _eligible((keys,), indices=(values, counts)):
        return numpy_impl.sort_groups(keys, values, aggregate, counts)
    groups = _lib["sort_groups"](
        keys.ctypes.data, values.ctypes.data,
        None if counts is None else counts.ctypes.data,
        keys.shape[0], _FOLD[aggregate],
    )
    if groups < 0:
        raise MemoryError("sort_groups: no memory for the sort scratch")
    return groups


def copy_runs(
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
    counts: np.ndarray,
    dest: np.ndarray,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> None:
    """Primitive 9: write partition-ordered pieces run by run.

    ``columns`` holds one ``(keys, payloads)`` pair per piece, each
    already in partition order with run lengths ``counts[b]`` (a row
    of the ``int64`` ``(pieces, P)`` matrix ``counts``): partition
    ``p`` of piece ``b`` — ``counts[b, p]`` consecutive tuples — is
    copied to ``out_*[dest[b, p]:]``.  Natively that is one memcpy per
    run and column, in one foreign call for all pieces; the twin
    scatters each piece by its expanded run index.  Pieces that do not
    hold their rows' tuples, or runs that would land outside the
    outputs, are refused before either backend runs.
    """
    counts = np.ascontiguousarray(counts, dtype=np.int64)
    dest = np.ascontiguousarray(dest, dtype=np.int64)
    if (
        counts.ndim != 2
        or dest.shape != counts.shape
        or len(columns) != counts.shape[0]
        or any(
            keys.shape != payloads.shape or keys.shape[0] != size
            for (keys, payloads), size in zip(
                columns, counts.sum(axis=1).tolist()
            )
        )
    ):
        raise ConfigurationError(
            "each piece's columns must hold its counts row's tuples"
        )
    room = min(out_keys.shape[0], out_payloads.shape[0])
    if counts.size and (
        (dest < 0).any() or (dest + counts > room).any()
    ):
        raise ConfigurationError("every run must land inside the outputs")
    if not _eligible(
        [out_keys, out_payloads, *(array for pair in columns for array in pair)]
    ):
        numpy_impl.copy_runs(columns, counts, dest, out_keys, out_payloads)
        return
    table = np.array(
        [keys.ctypes.data for keys, _ in columns]
        + [payloads.ctypes.data for _, payloads in columns],
        dtype=np.intp,
    )
    _lib["copy_runs"](
        table.ctypes.data, len(columns), counts.shape[1],
        counts.ctypes.data, dest.ctypes.data,
        out_keys.ctypes.data, out_payloads.ctypes.data,
    )
