"""Loader of the compiled kernel library.

:func:`load` builds (cached) → ``dlopen`` → prototypes every symbol
from :data:`SIGNATURES` → checks the ABI stamp, and hands the dispatch
layer (:mod:`repro.kernels`) the bare ctypes functions.  There is no
wrapper layer: each public primitive calls its symbol directly with raw
addresses, and every call releases the GIL for its whole duration
(ctypes drops it around foreign calls), which is the property the
thread backend of the execution engine relies on.
"""

from __future__ import annotations

import ctypes
from typing import Dict, Mapping

import numpy as np

from repro.kernels.build import KernelBuildError, build_native

#: bumped whenever a symbol is added, removed or re-typed, so a stale
#: cached library is never silently reused
ABI_VERSION = 10

#: C type per signature letter: ``p`` address, ``q`` int64, ``i`` int.
#: Every array argument is a raw address (``ndarray.ctypes.data``):
#: cheaper per call than ``data_as`` pointer casts, which matters for
#: the per-partition build/probe kernels a join-only plan calls
#: hundreds of times per query.  The dispatch layer guarantees dtype
#: and contiguity.
_CTYPES = {"p": ctypes.c_void_p, "q": ctypes.c_int64, "i": ctypes.c_int}

#: The one signature table: symbol family → (argument letters, result
#: letter or None, one variant per partition-index dtype).  A per-dtype
#: family ``f`` is the C symbols ``repro_<f>_<suffix>``; the others are
#: ``repro_<f>``.  ``repro_swwc_scatter_*`` is reached only through the
#: threaded entry point, which runs it for ``threads <= 1``.
SIGNATURES = {
    "kernels_abi": ("", "i", False),
    "hash_hist": ("pqqiqqppp", None, True),
    "scatter": ("pppqppp", None, True),
    "scatter_grouped": ("ppppqppp", None, True),
    "swwc_scatter_mt": ("pppqqqqppp", "i", True),
    "partition_batch": ("pqqiqpppp", None, True),
    "bucket_build": ("pqqpp", None, False),
    "bucket_probe": ("pppqpqppqp", "q", False),
    "join_aggregate": ("ppppppqqiipppp", "q", False),
    "sort_groups": ("pppqi", "q", False),
    "copy_runs": ("pqqpppp", None, False),
}


def load(part_suffixes: Mapping[np.dtype, str]) -> Dict[str, object]:
    """Build (if needed) and load the native library.

    Returns ``{family: function}`` for the plain families and
    ``{family: {dtype: function}}`` for the per-dtype ones, one variant
    per entry of ``part_suffixes``.  Raises :class:`KernelBuildError`
    when the build fails, the library cannot be loaded, a symbol is
    missing, or the ABI stamp does not match this binding.
    """
    path = build_native()
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as error:
        raise KernelBuildError(
            f"cannot load kernel library {path}: {error}"
        ) from error

    def bind(name, args, result):
        fn = getattr(lib, name)
        fn.argtypes = [_CTYPES[letter] for letter in args]
        fn.restype = _CTYPES[result] if result else None
        return fn

    table: Dict[str, object] = {}
    try:
        for family, (args, result, per_dtype) in SIGNATURES.items():
            if per_dtype:
                table[family] = {
                    dtype: bind(f"repro_{family}_{suffix}", args, result)
                    for dtype, suffix in part_suffixes.items()
                }
            else:
                table[family] = bind(f"repro_{family}", args, result)
    except AttributeError as error:
        raise KernelBuildError(
            f"kernel library {path} lacks a symbol: {error}"
        ) from error
    version = table["kernels_abi"]()
    if version != ABI_VERSION:
        raise KernelBuildError(
            f"kernel library ABI {version} != expected {ABI_VERSION} "
            "(stale cache?)"
        )
    return table
