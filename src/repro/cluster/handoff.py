"""Cross-node spill handoff: borrow a peer's memory before shedding load.

When a shard is memory-pressured (a routed slice exceeds its
``handoff_tuples`` budget) or its admission queue rejects outright, the
cluster's last resort used to be shedding the request.  Handoff adds a
better one: drain the slice through a
:class:`~repro.storage.spill.SpillPartitioner` run whose store and
run files live under a *peer's* storage root.  The donor shard
never materialises the slice; the peer lends disk and page cache; the
resulting :class:`~repro.storage.spill.PartitionSpill` serves the
partitions lazily, byte-identical to an in-memory run (the
PR 4 guarantee this module leans on).

The handoff is synchronous and owned by the router — the donor only
contributes its identity to the span and counters, which is what makes
the path usable even when the donor is the thing that's failing.
"""

from __future__ import annotations

import dataclasses
import itertools
import shutil
import threading

import numpy as np

from repro.errors import ConfigurationError
from repro.obs.tracing import resolve_tracer

__all__ = ["HandoffResult", "SpillHandoff"]

#: default in-memory budget for a handoff spill run — deliberately
#: small: the whole point is that the donor had no memory to spare
DEFAULT_HANDOFF_BYTES = 4 << 20


@dataclasses.dataclass
class HandoffResult:
    """One completed handoff: the spill handle plus its provenance."""

    donor_id: str
    peer_id: str
    spill: object  # storage.spill.PartitionSpill
    tuples: int

    @property
    def partition_keys(self):
        return self.spill.partition_keys

    @property
    def partition_payloads(self):
        return self.spill.partition_payloads

    def cleanup(self) -> None:
        """Drop the run files from the peer's storage."""
        self.spill.cleanup()


class SpillHandoff:
    """Executes spill handoffs between shard nodes.

    Args:
        bytes_in_memory: buffering budget for the handoff spill run.
        chunk_tuples: staging-store chunk size; small slices produce a
            single chunk either way.
        tracer: optional tracer; each handoff records a ``handoff``
            span with donor/peer/tuples/bytes attributes.
    """

    def __init__(
        self,
        bytes_in_memory: int = DEFAULT_HANDOFF_BYTES,
        chunk_tuples: int = 1 << 18,
        tracer=None,
    ):
        if bytes_in_memory < 1:
            raise ConfigurationError(
                f"bytes_in_memory must be >= 1, got {bytes_in_memory}"
            )
        self.bytes_in_memory = int(bytes_in_memory)
        self.chunk_tuples = int(chunk_tuples)
        self.tracer = resolve_tracer(tracer)
        self._sequence = itertools.count()
        self._lock = threading.Lock()

    def execute(
        self,
        donor,
        peer,
        keys: np.ndarray,
        payloads: np.ndarray,
        config,
    ) -> HandoffResult:
        """Drain ``(keys, payloads)`` into ``peer``'s storage.

        ``config`` must already be the request's
        :func:`~repro.core.pieces.piece_config` (the HIST/RID clone the
        shards run): HIST never overflows and explicit payloads
        carry the global positions, so the run cannot fail for
        mode-specific reasons and its run files hold exactly the
        global partitions' content for this slice.
        """
        from repro.storage import RelationStore, SpillPartitioner

        with self._lock:
            seq = next(self._sequence)
        tag = f"handoff-{donor.shard_id}-{seq:04d}"
        store_dir = peer.storage_root / f"{tag}-store"
        run_dir = peer.storage_root / f"{tag}-run"
        n = int(keys.shape[0])
        with self.tracer.span(
            "handoff",
            donor=donor.shard_id,
            peer=peer.shard_id,
            tuples=n,
            bytes=n * config.tuple_bytes,
        ):
            try:
                store = RelationStore.ingest(
                    keys,
                    store_dir,
                    payloads=payloads,
                    chunk_tuples=self.chunk_tuples,
                ).seal()
                with SpillPartitioner(
                    config=config,
                    backend="fpga",
                    max_bytes_in_memory=self.bytes_in_memory,
                    tracer=self.tracer if self.tracer.enabled else None,
                    # a handed-off slice is *expected* to be skewed —
                    # that is usually why the donor was pressured; don't
                    # warn
                    skew_warn_factor=float("inf"),
                ) as spiller:
                    spill = spiller.run(store, run_dir)
            except BaseException:
                # nobody will resume a failed handoff's run
                shutil.rmtree(run_dir, ignore_errors=True)
                raise
            finally:
                # the staging store was scratch; the run files now hold
                # the data
                shutil.rmtree(store_dir, ignore_errors=True)
        donor.stats.handoffs_out += 1
        peer.stats.handoffs_in += 1
        return HandoffResult(
            donor_id=donor.shard_id,
            peer_id=peer.shard_id,
            spill=spill,
            tuples=n,
        )
