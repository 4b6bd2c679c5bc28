"""Compiled hot-path kernels with a NumPy fallback.

The five inner primitives of the partitioning data plane — hash, radix
histogram, stable scatter, SWWC buffered flush, fused batch partition —
behind one dispatch layer with two interchangeable backends:

* **native** — a small C library (``_native.c``) compiled on demand
  with the system compiler and called through ctypes.  Every call
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

Dtype coverage: the native path handles contiguous ``uint32`` keys with
``uint8``/``uint16``/``int64`` partition indices (everything the morsel
planner emits).  Anything else — notably ``uint64`` keys for 16 B
tuples — transparently routes to the NumPy backend per call, so callers
never need to care.
"""

from __future__ import annotations

import contextlib
import os
import threading
from typing import Optional, Sequence, Tuple

import numpy as np

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
    "hash_histogram",
    "hash_only",
    "library_path",
    "native_available",
    "partition_batch",
    "scatter",
    "set_backend",
    "stable_scatter",
    "swwc_scatter",
    "using_backend",
]

_VALID_MODES = ("auto", "native", "numpy")

_lock = threading.Lock()
_native = None          # NativeKernels instance once loaded
_backend: Optional[str] = None   # "native" | "numpy" once resolved
_load_error: Optional[str] = None

_NATIVE_PART_DTYPES = (np.uint8, np.uint16, np.int64)


def _resolve() -> str:
    """Resolve the backend once, honouring ``REPRO_KERNELS``."""
    global _backend, _native, _load_error
    if _backend is not None:
        return _backend
    with _lock:
        if _backend is not None:
            return _backend
        mode = os.environ.get("REPRO_KERNELS", "auto").strip().lower()
        if mode not in _VALID_MODES:
            raise KernelBuildError(
                f"REPRO_KERNELS must be one of {_VALID_MODES}, got {mode!r}"
            )
        if mode == "numpy":
            _backend = "numpy"
            return _backend
        try:
            from repro.kernels.native import load

            _native = load()
            _backend = "native"
        except KernelBuildError as error:
            if mode == "native":
                raise
            _load_error = str(error)
            _backend = "numpy"
        return _backend


def backend_name() -> str:
    """The active backend: ``"native"`` or ``"numpy"``."""
    return _resolve()


def native_available() -> bool:
    """True when the native kernels are built, loaded and active-able."""
    global _native
    if _native is not None:
        return True
    try:
        from repro.kernels.native import load

        with _lock:
            if _native is None:
                _native = load()
        return True
    except KernelBuildError:
        return False


def load_error() -> Optional[str]:
    """Why auto-detection fell back to NumPy (None when it didn't)."""
    _resolve()
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
    previous = _resolve()
    if name == "native" and not native_available():
        raise KernelBuildError(
            "native kernels unavailable: "
            + (_load_error or "build failed")
        )
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


def _native_eligible(keys: np.ndarray, *arrays: Optional[np.ndarray]) -> bool:
    """Whether this call can run on the native path (dtype/layout)."""
    if _resolve() != "native":
        return False
    if keys.dtype != np.uint32 or not keys.flags.c_contiguous:
        return False
    for array in arrays:
        if array is not None and not array.flags.c_contiguous:
            return False
    return True


# ----------------------------------------------------------------------
# The five primitives
# ----------------------------------------------------------------------

def hash_histogram(
    keys: np.ndarray,
    num_partitions: int,
    use_hash: bool,
    lanes: Optional[int] = None,
    global_offset: int = 0,
    parts_out: Optional[np.ndarray] = None,
) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
    """Primitive 1+2: partition indices + histogram(s) for one morsel.

    Returns ``(parts, hist, lane_hist)`` exactly like the historical
    ``morsel_histogram``; ``lane_hist`` is the per-(partition, lane)
    matrix when ``lanes`` is given, else None.
    """
    if parts_out is None:
        from repro.exec.morsels import parts_dtype

        parts_out = np.empty(keys.shape[0], dtype=parts_dtype(num_partitions))
    if (
        _native_eligible(keys, parts_out)
        and parts_out.dtype in _NATIVE_PART_DTYPES
        and (lanes is None or lanes & (lanes - 1) == 0)
    ):
        return _native.hash_histogram(
            keys, num_partitions, use_hash, lanes, global_offset, parts_out
        )
    return numpy_impl.hash_histogram(
        keys, num_partitions, use_hash, lanes, global_offset, parts_out
    )


def hash_only(
    keys: np.ndarray,
    num_partitions: int,
    use_hash: bool,
    parts_out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Primitive 1: partition indices without counting."""
    if parts_out is None:
        dtype = np.uint16 if num_partitions <= 1 << 16 else np.int64
        parts_out = np.empty(keys.shape[0], dtype=dtype)
    if _native_eligible(keys, parts_out) and parts_out.dtype in (
        np.uint16,
        np.int64,
    ):
        return _native.hash_only(keys, num_partitions, use_hash, parts_out)
    return numpy_impl.hash_only(keys, num_partitions, use_hash, parts_out)


def stable_scatter(
    keys: np.ndarray,
    payloads: np.ndarray,
    parts: np.ndarray,
    dest_base: np.ndarray,
    num_partitions: int,
    out_keys: np.ndarray,
    out_payloads: np.ndarray,
) -> None:
    """Primitive 3: stable scatter of one morsel into shared outputs.

    ``dest_base`` (one row of the two-level prefix sum, length ≥
    ``num_partitions``) is *not* modified — the kernel advances a
    private cursor copy — so a caller can re-use the row.
    """
    cursor = np.ascontiguousarray(dest_base, dtype=np.int64).copy()
    if (
        _native_eligible(keys, payloads, parts, out_keys, out_payloads)
        and parts.dtype in _NATIVE_PART_DTYPES
        and payloads.dtype == np.uint32
        and out_keys.dtype == np.uint32
        and out_payloads.dtype == np.uint32
    ):
        _native.scatter(keys, payloads, parts, cursor, out_keys, out_payloads)
        return
    numpy_impl.scatter(keys, payloads, parts, cursor, out_keys, out_payloads)


#: alias kept intentionally: "scatter" is the primitive's short name
scatter = stable_scatter


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
    """Primitive 4: the scatter driven through software write-combine
    buffers (Code 2) — cache-line batched writes, byte-identical output
    to :func:`stable_scatter`.

    ``threads > 1`` (native backend only) splits the fan-out into one
    contiguous partition range per thread and flushes the ranges in
    parallel; each cursor has a single owner, so the result stays
    byte-identical.  The NumPy fallback ignores ``threads``.
    """
    from repro.kernels.native import SWWC_MAX_PARTITIONS

    cursor = np.ascontiguousarray(dest_base, dtype=np.int64).copy()
    if (
        _native_eligible(keys, payloads, parts, out_keys, out_payloads)
        and parts.dtype in _NATIVE_PART_DTYPES
        and payloads.dtype == np.uint32
        and out_keys.dtype == np.uint32
        and out_payloads.dtype == np.uint32
    ):
        if num_partitions <= SWWC_MAX_PARTITIONS and buffer_tuples >= 1:
            _native.swwc_scatter(
                keys, payloads, parts, num_partitions, buffer_tuples,
                cursor, out_keys, out_payloads, threads=max(1, int(threads)),
            )
        else:
            _native.scatter(
                keys, payloads, parts, cursor, out_keys, out_payloads
            )
        return
    numpy_impl.swwc_scatter(
        keys, payloads, parts, num_partitions, buffer_tuples, cursor,
        out_keys, out_payloads,
    )


def partition_batch(
    columns: Sequence[Tuple[np.ndarray, np.ndarray]],
    num_partitions: int,
    use_hash: bool,
    lanes: int,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primitive 5: primitives 2 and 3 over every request of a batch.

    ``columns`` holds one aligned ``(keys, payloads)`` pair per request
    (empty requests allowed); the inputs are only read.  Returns
    ``(out_keys, out_payloads, lane_matrix)``: one shared pair of fresh
    ``uint32`` output columns in which request ``r`` owns the slice
    ``[sum(sizes[:r]), sum(sizes[:r + 1]))``, stable-sorted by
    partition index — the bytes :func:`hash_histogram` +
    :func:`stable_scatter` produce for that request alone — and the
    ``(batch, num_partitions, lanes)`` ``int64`` histogram, a tuple's
    lane being its index *within its request* mod ``lanes``.

    Natively this is one foreign call (one GIL release) per batch with
    no input concatenation; a batch holding any non-``uint32`` or
    non-contiguous column takes the NumPy twin, which is also the only
    path without a compiler.
    """
    if num_partitions < 1 or num_partitions & (num_partitions - 1):
        raise ConfigurationError(
            f"num_partitions must be a power of two, got {num_partitions}"
        )
    if lanes < 1 or lanes & (lanes - 1):
        raise ConfigurationError(
            f"lanes must be a power of two, got {lanes}"
        )
    native = _resolve() == "native"
    for keys, payloads in columns:
        if keys.ndim != 1 or keys.shape != payloads.shape:
            raise ConfigurationError("keys and payloads must align")
        native = (
            native
            and payloads.dtype == np.uint32
            and _native_eligible(keys, payloads)
        )
    if native:
        from repro.exec.morsels import parts_dtype

        return _native.partition_batch(
            columns, num_partitions, use_hash, lanes,
            parts_dtype(num_partitions),
        )
    return numpy_impl.partition_batch(
        columns, num_partitions, use_hash, lanes
    )


def bucket_build(
    keys: np.ndarray, num_buckets: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Primitive 6: bucket-chaining join build → ``(heads, next)``.

    Chains are identical across backends: head = the bucket's last
    tuple, ``next`` pointing to earlier ones (scalar front-insertion
    order).  Buckets come from the murmur in-table hash.
    """
    if _native_eligible(keys):
        heads = np.empty(num_buckets, dtype=np.int64)
        nxt = np.empty(keys.shape[0], dtype=np.int64)
        _native.bucket_build(keys, num_buckets, heads, nxt)
        return heads, nxt
    return numpy_impl.bucket_build(keys, num_buckets)


def bucket_probe(
    build_keys: np.ndarray,
    heads: np.ndarray,
    nxt: np.ndarray,
    num_buckets: int,
    probe_keys: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Primitive 7: chain-walk probe → ``(probe_idx, build_idx, hops)``.

    Emission is probe-major on both backends — for each probe tuple in
    input order, its matches follow the chain — so the match ordering
    (and everything derived from it: payload pairs, aggregation input
    order) is backend-invariant.  The native walk runs the whole probe
    in one GIL-free call.
    """
    if (
        _native_eligible(build_keys, heads, nxt)
        and probe_keys.dtype == np.uint32
        and probe_keys.flags.c_contiguous
        and heads.dtype == np.int64
        and nxt.dtype == np.int64
    ):
        return _native.bucket_probe(
            build_keys, heads, nxt, num_buckets, probe_keys
        )
    return numpy_impl.bucket_probe(
        build_keys, heads, nxt, num_buckets, probe_keys
    )
