"""ctypes bindings over the compiled kernel library.

Loading goes through :func:`load`: build (cached) → ``dlopen`` →
prototype every symbol → ABI check.  The binding layer is intentionally
thin — argument marshalling is raw pointers over contiguous ndarrays,
and every call releases the GIL for its whole duration (ctypes drops it
around foreign calls), which is the property the thread backend of the
execution engine relies on.

All wrappers assume the dispatch layer (:mod:`repro.kernels`) has
already normalised dtypes and contiguity; they only assert, never
convert, so the native path never hides a copy.
"""

from __future__ import annotations

import ctypes
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.kernels.build import KernelBuildError, build_native

_i64 = ctypes.c_int64
_int = ctypes.c_int
#: all array arguments pass as raw addresses (``ndarray.ctypes.data``):
#: cheaper per call than ``data_as`` pointer casts, which matters for
#: the per-partition build/probe kernels called hundreds of times per
#: query.  The dispatch layer already guarantees dtype and contiguity.
_ptr_t = ctypes.c_void_p

#: kernel suffix per partition-index dtype
_PART_VARIANTS = {
    np.dtype(np.uint8): "u8",
    np.dtype(np.uint16): "u16",
    np.dtype(np.int64): "i64",
}

#: SWWC buffering pays off while the buffer pool stays cache resident;
#: past this fan-out the plain cursor scatter wins (pool > L2).
SWWC_MAX_PARTITIONS = 1 << 13


def _addr(array: np.ndarray) -> int:
    """Raw data address of a contiguous ndarray (for ``c_void_p``)."""
    return array.ctypes.data


class NativeKernels:
    """Handle over the loaded library; one instance per process."""

    def __init__(self, lib: ctypes.CDLL):
        self._lib = lib
        self._hash_hist = {}
        self._scatter = {}
        self._swwc = {}
        self._swwc_mt = {}
        self._partition_batch = {}
        for dtype, suffix in _PART_VARIANTS.items():
            fn = getattr(lib, f"repro_hash_hist_{suffix}")
            fn.argtypes = [
                _ptr_t, _i64, _i64, _int, _i64, _i64,
                _ptr_t, _ptr_t, _ptr_t,
            ]
            fn.restype = None
            self._hash_hist[dtype] = fn

            fn = getattr(lib, f"repro_scatter_{suffix}")
            fn.argtypes = [_ptr_t, _ptr_t, _ptr_t, _i64, _ptr_t,
                           _ptr_t, _ptr_t]
            fn.restype = None
            self._scatter[dtype] = fn

            fn = getattr(lib, f"repro_swwc_scatter_{suffix}")
            fn.argtypes = [_ptr_t, _ptr_t, _ptr_t, _i64, _i64, _i64,
                           _ptr_t, _ptr_t, _ptr_t]
            fn.restype = _int
            self._swwc[dtype] = fn

            fn = getattr(lib, f"repro_swwc_scatter_mt_{suffix}")
            fn.argtypes = [_ptr_t, _ptr_t, _ptr_t, _i64, _i64, _i64,
                           _i64, _ptr_t, _ptr_t, _ptr_t]
            fn.restype = _int
            self._swwc_mt[dtype] = fn

            fn = getattr(lib, f"repro_partition_batch_{suffix}")
            fn.argtypes = [_ptr_t, _i64, _i64, _int, _i64, _ptr_t,
                           _ptr_t, _ptr_t]
            fn.restype = None
            self._partition_batch[dtype] = fn

        self._hash_only = {}
        for dtype in (np.dtype(np.uint16), np.dtype(np.int64)):
            fn = getattr(lib, f"repro_hash_only_{_PART_VARIANTS[dtype]}")
            fn.argtypes = [_ptr_t, _i64, _i64, _int, _ptr_t]
            fn.restype = None
            self._hash_only[dtype] = fn

        fn = lib.repro_bucket_build
        fn.argtypes = [_ptr_t, _i64, _i64, _ptr_t, _ptr_t]
        fn.restype = None
        self._bucket_build = fn

        fn = lib.repro_bucket_probe
        fn.argtypes = [_ptr_t, _ptr_t, _ptr_t, _i64, _ptr_t, _i64,
                       _ptr_t, _ptr_t, _i64, _ptr_t]
        fn.restype = _i64
        self._bucket_probe = fn

    # -- wrappers -------------------------------------------------------

    def hash_histogram(
        self,
        keys: np.ndarray,
        num_partitions: int,
        use_hash: bool,
        lanes: Optional[int],
        global_offset: int,
        parts_out: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Fused hash + histogram (+ lane histogram) over one morsel."""
        fn = self._hash_hist[parts_out.dtype]
        hist = np.zeros(num_partitions, dtype=np.int64)
        if lanes is not None:
            lane_hist = np.zeros((num_partitions, lanes), dtype=np.int64)
            lane_ptr = _addr(lane_hist)
            lane_count = lanes
        else:
            lane_hist = None
            lane_ptr = None
            lane_count = 0
        fn(
            _addr(keys),
            keys.shape[0],
            num_partitions,
            1 if use_hash else 0,
            lane_count,
            global_offset,
            _addr(parts_out),
            _addr(hist),
            lane_ptr,
        )
        return parts_out, hist, lane_hist

    def hash_only(
        self,
        keys: np.ndarray,
        num_partitions: int,
        use_hash: bool,
        parts_out: np.ndarray,
    ) -> np.ndarray:
        """Partition indices only (no counting)."""
        fn = self._hash_only[parts_out.dtype]
        fn(
            _addr(keys),
            keys.shape[0],
            num_partitions,
            1 if use_hash else 0,
            _addr(parts_out),
        )
        return parts_out

    def scatter(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        parts: np.ndarray,
        cursor: np.ndarray,
        out_keys: np.ndarray,
        out_payloads: np.ndarray,
    ) -> None:
        """Stable cursor scatter; ``cursor`` is advanced in place."""
        fn = self._scatter[parts.dtype]
        fn(
            _addr(keys),
            _addr(payloads),
            _addr(parts),
            keys.shape[0],
            _addr(cursor),
            _addr(out_keys),
            _addr(out_payloads),
        )

    def swwc_scatter(
        self,
        keys: np.ndarray,
        payloads: np.ndarray,
        parts: np.ndarray,
        num_partitions: int,
        buffer_tuples: int,
        cursor: np.ndarray,
        out_keys: np.ndarray,
        out_payloads: np.ndarray,
        threads: int = 1,
    ) -> None:
        """Buffered (write-combine) scatter; same bytes as scatter().

        ``threads > 1`` flushes partition ranges in parallel (each
        thread owns a contiguous range of cursors, so the output stays
        byte-identical to the serial scatter).
        """
        if threads > 1:
            fn = self._swwc_mt[parts.dtype]
            status = fn(
                _addr(keys),
                _addr(payloads),
                _addr(parts),
                keys.shape[0],
                num_partitions,
                buffer_tuples,
                threads,
                _addr(cursor),
                _addr(out_keys),
                _addr(out_payloads),
            )
        else:
            fn = self._swwc[parts.dtype]
            status = fn(
                _addr(keys),
                _addr(payloads),
                _addr(parts),
                keys.shape[0],
                num_partitions,
                buffer_tuples,
                _addr(cursor),
                _addr(out_keys),
                _addr(out_payloads),
            )
        if status != 0:  # pragma: no cover - malloc failure path
            self.scatter(keys, payloads, parts, cursor, out_keys,
                         out_payloads)

    def partition_batch(
        self,
        columns: Sequence[Tuple[np.ndarray, np.ndarray]],
        num_partitions: int,
        use_hash: bool,
        lanes: int,
        parts_dtype: np.dtype,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Hash, histogram and stable scatter of every request of a
        batch in one call; returns ``(out_keys, out_payloads,
        lane_matrix)`` (see :func:`repro.kernels.partition_batch`).
        ``parts_dtype`` is the partition-index dtype of the scratch
        column between the two passes."""
        batch = len(columns)
        sizes = [keys.shape[0] for keys, _ in columns]
        # Few, wide buffers: ``ndarray.ctypes.data`` costs about as
        # much as partitioning 200 tuples, so the call takes four
        # addresses plus the two per request it cannot avoid.  The
        # table holds raw pointers; ``columns`` keeps them alive.
        table = np.array(
            sizes
            + [keys.ctypes.data for keys, _ in columns]
            + [payloads.ctypes.data for _, payloads in columns],
            dtype=np.intp,
        )
        n = sum(sizes)
        parts = np.empty(max(sizes, default=0), dtype=parts_dtype)
        out = np.empty(2 * n, dtype=np.uint32)
        # cursor scratch, then the lane matrix
        acc = np.zeros(
            num_partitions * (1 + batch * lanes), dtype=np.int64
        )
        self._partition_batch[parts.dtype](
            _addr(table),
            batch,
            num_partitions,
            1 if use_hash else 0,
            lanes,
            _addr(parts),
            _addr(out),
            _addr(acc),
        )
        return (
            out[:n],
            out[n:],
            acc[num_partitions:].reshape(batch, num_partitions, lanes),
        )

    def bucket_build(
        self,
        keys: np.ndarray,
        num_buckets: int,
        heads: np.ndarray,
        nxt: np.ndarray,
    ) -> None:
        """Front-insertion chain build over a build-side key array."""
        self._bucket_build(
            _addr(keys),
            keys.shape[0],
            num_buckets,
            _addr(heads),
            _addr(nxt),
        )

    def bucket_probe(
        self,
        build_keys: np.ndarray,
        heads: np.ndarray,
        nxt: np.ndarray,
        num_buckets: int,
        probe_keys: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray, int]:
        """Chain-walk probe (probe-major emission, like the NumPy walk).

        Returns ``(probe_idx, build_idx, hops)``.  The initial output
        capacity carries 25% headroom over the probe count so near-1:1
        joins finish in one walk; if the true match count still exceeds
        it, the kernel reports the count and the walk re-runs once with
        exact-size buffers.
        """
        m = int(probe_keys.shape[0])
        capacity = m + m // 4 + 64
        hops = np.zeros(1, dtype=np.int64)
        while True:
            out_probe = np.empty(capacity, dtype=np.int64)
            out_build = np.empty(capacity, dtype=np.int64)
            count = int(
                self._bucket_probe(
                    _addr(build_keys),
                    _addr(heads),
                    _addr(nxt),
                    num_buckets,
                    _addr(probe_keys),
                    m,
                    _addr(out_probe),
                    _addr(out_build),
                    capacity,
                    _addr(hops),
                )
            )
            if count <= capacity:
                return out_probe[:count], out_build[:count], int(hops[0])
            capacity = count


def load() -> NativeKernels:
    """Build (if needed) and load the native library.

    Raises :class:`KernelBuildError` when the build fails, the library
    cannot be loaded, or its ABI stamp does not match this binding.
    """
    path = build_native()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as error:
        raise KernelBuildError(
            f"cannot load kernel library {path}: {error}"
        ) from error
    try:
        abi = lib.repro_kernels_abi
        abi.restype = ctypes.c_int
        version = int(abi())
    except AttributeError as error:
        raise KernelBuildError(
            f"kernel library {path} has no ABI stamp"
        ) from error
    if version != 4:
        raise KernelBuildError(
            f"kernel library ABI {version} != expected 4 (stale cache?)"
        )
    return NativeKernels(lib)
