"""Skew-aware execution: heavy hitters get dedicated exact-fit regions.

Section 3.2's unavoidable fact is that every repeat of a key lands in
one partition, so a single hot key defeats PAD mode's fixed-capacity
regions: its partition overflows and the run aborts.  The classic
answer is to give up on PAD and rerun in HIST — paying the failed pass
*plus* the two-pass mode.  :func:`partition_isolated` does better when
the hot keys are known in advance (from the ingest sketches): the
partitions those keys hash into are carved out of the PAD grid and
given **exact-fit regions appended after it** — sized from the same
histogram pass PAD already runs — while every cold partition keeps its
fixed-capacity slot.  The PAD overflow check then applies to cold
partitions only, so a hot key cannot trigger the overflow path at all.

The output is **byte-identical in contents and traffic** to what the
static partitioner produces: partition contents and ``counts`` never
depended on the output mode in the first place, and both PAD and
isolated layouts write exactly the filled cache lines (padding is
accounted per lane, not per region), so ``bytes_read``/
``bytes_written``/``dummy_slots`` all agree.  Only ``base_lines`` —
where each region *starts* — differs, which is precisely the knob the
hardware's region allocator owns.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro import kernels
from repro.core.modes import OutputMode
from repro.core.partitioner import (
    FpgaPartitioner,
    OverflowPolicy,
    PartitionedOutput,
)
from repro.core.pieces import extract_columns
from repro.workloads.relations import Relation

__all__ = ["hot_partitions", "partition_isolated"]


def hot_partitions(
    hot_keys: Sequence[int],
    num_partitions: int,
    uses_hash: bool,
) -> np.ndarray:
    """Partition ids the hot keys map to (sorted, unique)."""
    if not len(hot_keys):
        return np.empty(0, dtype=np.int64)
    keys = np.asarray(list(hot_keys), dtype=np.uint32)
    parts = kernels.hash_only(keys, num_partitions, uses_hash)
    return np.unique(parts.astype(np.int64))


def partition_isolated(
    partitioner: FpgaPartitioner,
    relation: Relation | np.ndarray,
    payloads: Optional[np.ndarray] = None,
    hot_keys: Sequence[int] = (),
    on_overflow: OverflowPolicy = "hist",
) -> PartitionedOutput:
    """Partition with sketch-detected heavy hitters isolated.

    Args:
        partitioner: the configured :class:`FpgaPartitioner` whose
            static output this run must match in contents.
        relation: per the :meth:`FpgaPartitioner.partition` contract.
        payloads: payload column when ``relation`` is a bare array.
        hot_keys: keys to isolate; their partitions get exact-fit
            regions and are exempt from the PAD capacity check.
        on_overflow: policy if a *cold* partition still overflows —
            the sketch can only vouch for the keys it retained.

    Returns:
        A :class:`PartitionedOutput` with ``produced_by`` set to
        ``"fpga-isolated"`` and ``isolated_partitions`` counting the
        carved-out regions.  In HIST mode (or with no hot keys) this
        degenerates to the plain partitioner — HIST has no overflow
        path to protect.
    """
    cfg = partitioner.config
    if cfg.output_mode is not OutputMode.PAD or not len(hot_keys):
        return partitioner.partition(relation, payloads, on_overflow)

    keys, payloads = extract_columns(cfg, relation, payloads)
    with partitioner.tracer.span(
        "fpga.partition_isolated",
        tuples=int(keys.shape[0]),
        partitions=cfg.num_partitions,
        mode=cfg.mode_label,
        hot_keys=len(hot_keys),
    ) as span:
        # The PAD capacity check then applies to cold partitions only;
        # should one of those overflow anyway, ``on_overflow`` decides
        # as usual and nothing is isolated.
        output = partitioner._partition_traced(
            keys,
            payloads,
            on_overflow,
            None,
            hot=hot_partitions(hot_keys, cfg.num_partitions, cfg.uses_hash),
        )
        span.set_attributes(
            isolated_partitions=output.isolated_partitions,
            bytes_read=output.bytes_read,
            bytes_written=output.bytes_written,
        )
        return output
