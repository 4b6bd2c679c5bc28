"""Morsel planning and the prefix-sum merge between the two phases.

The partitioning data plane is decomposed into cache-friendly chunks of
the input ("morsels", after the morsel-driven execution model).  Each
morsel is processed independently in two phases, each one call of a
kernel primitive:

1. **histogram** (``kernels.hash_histogram``) — compute the partition
   index of every tuple in the morsel and count tuples per partition
   (and, for the FPGA layout, per (partition, lane) pair);
2. **scatter** (``kernels.stable_scatter``) — write the morsel's
   tuples, stably by partition index, into their preassigned
   destination ranges.

Between the phases, :func:`merge_histograms` turns the per-morsel
histograms into per-(morsel, partition) destination bases with a
two-level prefix sum: partitions are laid out by total count, and
within a partition the morsels stack in input order.  Because morsels
are contiguous input ranges taken in order, concatenating the morsel
groups of a partition reproduces the input order of that partition's
tuples exactly — i.e. the scattered output is **byte-identical to a
stable sort of the whole input by partition index**, for *any* morsel
split.  That property is what lets the parallel engine promise the
same bytes as the sequential partitioners.

The kernels keep partition indices in the smallest integer dtype that
fits the fan-out (``kernels.parts_dtype``): on the NumPy backend the stable
argsort that dominates the scatter phase runs several times faster on
small-integer morsels than one monolithic ``int64`` sort of the full
relation — this is where the engine's single-core speedup comes from,
independent of the worker pool.
"""

from __future__ import annotations

import dataclasses
from typing import List, Sequence, Tuple

import numpy as np

from repro import kernels
from repro.errors import ConfigurationError

#: default morsel size in tuples; large enough to amortise task
#: dispatch, small enough that the per-morsel index arrays stay cache
#: friendly for the stable sort.
DEFAULT_MORSEL_TUPLES = 1 << 18

#: default morsel size on the native backend: the compiled kernels
#: have no per-morsel sort whose working set must fit in cache, so
#: larger morsels win — less dispatch, fewer histogram merges.
NATIVE_MORSEL_TUPLES = 1 << 20


def default_morsel_tuples() -> int:
    """Backend-tuned default morsel size (see the two constants)."""
    if kernels.backend_name() == "native":
        return NATIVE_MORSEL_TUPLES
    return DEFAULT_MORSEL_TUPLES


@dataclasses.dataclass
class MorselStats:
    """Accounting of one chunked partitioning run."""

    num_morsels: int
    morsel_tuples: int
    backend: str = "serial"
    workers: int = 1


def plan_morsels(
    n: int,
    workers: int,
    morsel_tuples: int = DEFAULT_MORSEL_TUPLES,
) -> List[Tuple[int, int]]:
    """Contiguous ``[lo, hi)`` input ranges covering ``n`` tuples.

    At least ``workers`` morsels are produced (so every worker gets
    work) and no morsel exceeds ``morsel_tuples``; sizes differ by at
    most one tuple so the pool stays balanced.
    """
    if n < 0:
        raise ConfigurationError(f"negative tuple count: {n}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    if n == 0:
        return [(0, 0)]
    num = max(workers, -(-n // max(1, morsel_tuples)))
    num = min(num, n)  # no empty morsels
    base, extra = divmod(n, num)
    chunks = []
    start = 0
    for i in range(num):
        size = base + (1 if i < extra else 0)
        chunks.append((start, start + size))
        start += size
    return chunks


def merge_histograms(
    chunk_hists: Sequence[np.ndarray],
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Two-level prefix sum over per-morsel histograms.

    Returns ``(counts, partition_base, dest_base)``: the global
    per-partition counts, the exclusive prefix sum laying partitions
    out contiguously, and a ``(num_morsels, num_partitions)`` matrix
    where row ``c`` gives morsel ``c``'s first destination slot in each
    partition (morsels stack within a partition in input order).
    """
    local = np.asarray(chunk_hists, dtype=np.int64)
    counts = local.sum(axis=0)
    num_partitions = counts.shape[0]
    partition_base = np.zeros(num_partitions, dtype=np.int64)
    np.cumsum(counts[:-1], out=partition_base[1:])
    chunk_offsets = np.zeros_like(local)
    if local.shape[0] > 1:
        np.cumsum(local[:-1], axis=0, out=chunk_offsets[1:])
    return counts, partition_base, partition_base[None, :] + chunk_offsets
