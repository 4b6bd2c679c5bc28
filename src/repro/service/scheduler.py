"""Batching scheduler: coalesce compatible requests, split huge ones.

The scheduler sits between the admission queue and the partitioner and
makes the one decision that dominates small-request throughput on this
simulator: *how many requests ride one kernel invocation*.  Per-call
fixed costs (the foreign call and its GIL hand-off, buffer set-up) are
amortised by coalescing every queued request with an identical
:func:`request_signature` into a single
:meth:`~repro.core.partitioner.FpgaPartitioner.partition_many` call —
one :func:`~repro.kernels.partition_batch` for the whole batch, with
per-request outputs byte-identical to solo calls by construction.

Requests too large to benefit from coalescing go the other way: they
are *split* into morsels by the :mod:`repro.exec` engine inside a solo
``partition`` call, so one huge relation cannot add head-of-line
latency to a queue of small interactive requests.

Batch formation preserves the admission queue's priority order: the
dispatcher drains in priority-FIFO order and the scheduler groups
adjacent-compatible work without reordering across groups.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.modes import PartitionerConfig
from repro.errors import ReproError
from repro.obs.tracing import resolve_tracer
from repro.service.queue import AdmissionQueue


@functools.lru_cache(maxsize=None)
def request_signature(config: PartitionerConfig) -> Tuple:
    """Compatibility key: requests coalesce iff signatures are equal.

    Every field of :class:`~repro.core.modes.PartitionerConfig`
    participates — two requests are batchable only when a single kernel
    invocation with one config serves both exactly.  Configs are frozen
    (hashable) dataclasses, so the signature is memoised: it sits on
    the per-request submit path, where ``dataclasses.astuple``'s deep
    copy would cost more than the admission queue itself.
    """
    return tuple(
        getattr(config, field.name)
        for field in dataclasses.fields(config)
    )


@dataclasses.dataclass
class Batch:
    """One unit of dispatcher work: entries sharing a signature.

    ``split=True`` marks a deliberately-solo batch whose single entry is
    large enough to be morsel-split inside the engine instead of
    coalesced with neighbours.  ``spill=True`` marks a solo batch too
    large even for that — it exceeds the service's in-memory budget and
    is routed to the out-of-core spill path
    (:mod:`repro.storage.spill`) instead of being rejected.
    """

    entries: List[object]
    signature: Tuple
    total_tuples: int
    split: bool = False
    spill: bool = False

    def __len__(self) -> int:
        return len(self.entries)


class BatchingScheduler:
    """Forms :class:`Batch`\\ es from an :class:`AdmissionQueue`.

    Args:
        max_batch_requests: coalescing cap per kernel invocation.
            (Without compiled kernels the NumPy twin packs ``(request,
            partition)`` into 16 bits and takes several passes over a
            batch with ``max_batch_requests * num_partitions`` above
            ``2**16``.)
        max_batch_tuples: cap on the *sum* of tuples per coalesced
            batch, bounding kernel working-set size.
        split_tuples: requests at or above this size skip coalescing
            and run solo with engine-side morsel splitting; defaults to
            ``max_batch_tuples`` (a request that would fill a batch by
            itself gains nothing from coalescing).
        spill_tuples: requests at or above this size exceed what the
            service wants resident in memory at once and are marked
            ``Batch.spill`` for the out-of-core path; ``None`` (the
            default) disables spill routing.
        linger_s: how long to wait after the first dequeue for more
            requests to arrive before dispatching a small batch — the
            classic batching latency/throughput trade (0 disables).
        clock: injectable monotonic clock (tests).
        tracer: optional :class:`~repro.obs.tracing.Tracer`; batch
            formation runs inside a ``schedule`` span and each
            coalesce/split decision is recorded as a span event.

    Entries handed to :meth:`collect` must expose ``signature`` and
    ``tuples`` attributes; the service precomputes both at admission.
    """

    def __init__(
        self,
        max_batch_requests: int = 64,
        max_batch_tuples: int = 1 << 20,
        split_tuples: Optional[int] = None,
        spill_tuples: Optional[int] = None,
        linger_s: float = 0.002,
        clock=time.monotonic,
        tracer=None,
    ):
        if max_batch_requests < 1:
            raise ReproError(
                f"max_batch_requests must be >= 1, got {max_batch_requests}"
            )
        if max_batch_tuples < 1:
            raise ReproError(
                f"max_batch_tuples must be >= 1, got {max_batch_tuples}"
            )
        if linger_s < 0:
            raise ReproError(f"linger_s must be >= 0, got {linger_s}")
        self.max_batch_requests = max_batch_requests
        self.max_batch_tuples = max_batch_tuples
        self.split_tuples = (
            split_tuples if split_tuples is not None else max_batch_tuples
        )
        if self.split_tuples < 1:
            raise ReproError(
                f"split_tuples must be >= 1, got {self.split_tuples}"
            )
        if spill_tuples is not None and spill_tuples < 1:
            raise ReproError(
                f"spill_tuples must be >= 1, got {spill_tuples}"
            )
        self.spill_tuples = spill_tuples
        self.linger_s = linger_s
        self._clock = clock
        self._tracer = resolve_tracer(tracer)

    # ------------------------------------------------------------------

    def collect(
        self, queue: AdmissionQueue, timeout: Optional[float] = None
    ) -> List[Batch]:
        """Block up to ``timeout`` for work, then form batches.

        Returns [] on timeout or queue closure with nothing pending.
        One call drains at most ``max_batch_requests`` *per signature
        group already started* plus whatever arrived during the linger
        window; leftovers stay logically ordered for the next call
        because grouping never reorders across priority-FIFO positions.
        """
        first = queue.take(timeout)
        if first is None:
            return []
        with self._tracer.span("schedule") as span:
            entries = [first]
            if self.linger_s > 0 and len(queue) == 0:
                # small sleep to let a burst coalesce; skipped when the
                # queue already has depth (no point waiting for stragglers)
                deadline = self._clock() + self.linger_s
                while self._clock() < deadline and len(queue) == 0:
                    time.sleep(min(self.linger_s, 0.0005))
            entries.extend(queue.drain(4 * self.max_batch_requests - 1))
            batches = self.form_batches(entries)
            span.set_attributes(requests=len(entries), batches=len(batches))
            return batches

    def form_batches(self, entries: Sequence[object]) -> List[Batch]:
        """Group ``entries`` into batches without reordering groups.

        Spill rule first (over the memory budget → solo ``spill``
        batch for the out-of-core path), then splitting (oversized →
        solo ``split`` batch), then signature grouping with
        request-count and tuple-sum caps.
        """
        batches: List[Batch] = []
        open_by_signature: Dict[Tuple, int] = {}
        for entry in entries:
            tuples = entry.tuples
            if getattr(entry, "force_spill", False) or (
                self.spill_tuples is not None
                and tuples >= self.spill_tuples
            ):
                # an optimizer multi-pass routing forces the spill path
                # even below the static threshold
                self._tracer.add_event(
                    "scheduler.spill", tuples=tuples,
                    threshold=self.spill_tuples,
                )
                batches.append(
                    Batch(
                        entries=[entry],
                        signature=entry.signature,
                        total_tuples=tuples,
                        spill=True,
                    )
                )
                continue
            if tuples >= self.split_tuples:
                self._tracer.add_event(
                    "scheduler.split", tuples=tuples,
                    threshold=self.split_tuples,
                )
                batches.append(
                    Batch(
                        entries=[entry],
                        signature=entry.signature,
                        total_tuples=tuples,
                        split=True,
                    )
                )
                continue
            index = open_by_signature.get(entry.signature)
            if index is not None:
                batch = batches[index]
                if (
                    len(batch.entries) < self.max_batch_requests
                    and batch.total_tuples + tuples <= self.max_batch_tuples
                ):
                    batch.entries.append(entry)
                    batch.total_tuples += tuples
                    self._tracer.add_event(
                        "scheduler.coalesce", batch=index,
                        requests=len(batch.entries),
                        tuples=batch.total_tuples,
                    )
                    continue
            batches.append(
                Batch(
                    entries=[entry],
                    signature=entry.signature,
                    total_tuples=tuples,
                )
            )
            open_by_signature[entry.signature] = len(batches) - 1
        return batches
