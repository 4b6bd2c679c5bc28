"""Bounded admission queue with priorities and backpressure.

The serving tier's first line of defence: a queue that can say *no*.
Admission is bounded both in request count and (optionally) in queued
tuples, so a burst of clients cannot grow memory without bound — the
overload response is an immediate rejection carrying a ``retry_after``
hint, never an ever-longer queue (the classic inference-server
admission-control design, and the same flow-control stance as the
paper's circuit: back-pressure propagates to the *issue* side instead
of overflowing a FIFO).

Ordering is priority-first, FIFO within a priority level.  The queue
itself is deadline-agnostic; expiry is enforced by the dispatcher when
it dequeues (see :mod:`repro.service.service`), which keeps the heap
invariant trivial.
"""

from __future__ import annotations

import heapq
import threading
from typing import Callable, Iterator, List, Optional, Tuple

from repro.errors import ReproError


class QueueFullError(ReproError):
    """The admission queue rejected an offer (backpressure).

    Carries the ``retry_after`` hint so callers that prefer exceptions
    over checking :meth:`AdmissionQueue.offer`'s return value still get
    the backoff signal.
    """

    def __init__(self, depth: int, retry_after: float):
        self.depth = depth
        self.retry_after = retry_after
        super().__init__(
            f"admission queue full at depth {depth}; retry after "
            f"{retry_after:.3f}s"
        )


class AdmissionQueue:
    """Bounded, prioritised MPSC queue for partition requests.

    Args:
        max_requests: hard bound on queued entries.
        max_tuples: optional additional bound on the *sum of tuples*
            queued — a count bound alone admits 1000 huge requests as
            readily as 1000 tiny ones.
        clock: injectable monotonic clock (tests).

    Entries are arbitrary objects; the queue orders them by the
    ``priority`` given to :meth:`offer` (higher first), FIFO within a
    level.  Producers are many client threads; the consumer is the
    service's dispatcher.
    """

    def __init__(
        self,
        max_requests: int = 1024,
        max_tuples: Optional[int] = None,
        clock=None,
    ):
        if max_requests < 1:
            raise ReproError(
                f"max_requests must be >= 1, got {max_requests}"
            )
        if max_tuples is not None and max_tuples < 1:
            raise ReproError(f"max_tuples must be >= 1, got {max_tuples}")
        self.max_requests = max_requests
        self.max_tuples = max_tuples
        self._heap: List[Tuple[int, int, int, object]] = []
        self._tuples_queued = 0
        self._sequence = 0
        self._closed = False
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        #: EWMA of the dispatcher's drain rate, tuples/second — the
        #: basis of the ``retry_after`` hint handed to rejected clients
        self._drain_tuples_per_s = 0.0

    # -- producer side --------------------------------------------------

    def offer(
        self,
        item: object,
        priority: int,
        tuples: int,
        on_admit: Optional[Callable[[], None]] = None,
    ) -> bool:
        """Try to admit ``item``; False means rejected (queue full).

        Never blocks: admission control answers immediately so clients
        can apply their own backoff instead of piling onto a lock.
        ``on_admit`` runs under the queue's lock once the item is in,
        before the consumer is woken — whatever it records (the
        service's ``admitted`` counter) is visible before anything the
        consumer does with the item.  Keep it short.
        """
        with self._lock:
            if self._closed:
                return False
            if len(self._heap) >= self.max_requests:
                return False
            if (
                self.max_tuples is not None
                and self._tuples_queued + tuples > self.max_tuples
                and self._tuples_queued > 0
            ):
                return False
            self._sequence += 1
            heapq.heappush(
                self._heap, (-priority, self._sequence, tuples, item)
            )
            self._tuples_queued += tuples
            if on_admit is not None:
                on_admit()
            self._not_empty.notify()
            return True

    def retry_after_hint(self) -> float:
        """Suggested client backoff, from queue depth and drain rate.

        ``queued_tuples / drain_rate`` when the dispatcher has
        established a rate, else a depth-proportional guess.  Bounded
        to [10 ms, 5 s] so a cold or stalled service still hands out a
        sane hint.
        """
        with self._lock:
            if self._drain_tuples_per_s > 0:
                estimate = self._tuples_queued / self._drain_tuples_per_s
            else:
                estimate = 0.01 * (1 + len(self._heap) / self.max_requests)
            return float(min(5.0, max(0.01, estimate)))

    # -- consumer side --------------------------------------------------

    def take(self, timeout: Optional[float] = None) -> Optional[object]:
        """Pop the highest-priority entry, blocking up to ``timeout``.

        Returns None on timeout or when the queue is closed and empty.
        """
        with self._not_empty:
            while not self._heap:
                if self._closed:
                    return None
                if not self._not_empty.wait(timeout):
                    return None
            return self._pop_locked()

    def drain(self, limit: int) -> List[object]:
        """Pop up to ``limit`` entries without blocking (batch collect)."""
        if limit < 1:
            return []
        with self._lock:
            return [
                self._pop_locked()
                for _ in range(min(limit, len(self._heap)))
            ]

    def _pop_locked(self) -> object:
        _, _, tuples, item = heapq.heappop(self._heap)
        self._tuples_queued -= tuples
        return item

    def note_drain_rate(self, tuples_per_second: float) -> None:
        """Dispatcher feedback for :meth:`retry_after_hint` (EWMA)."""
        if tuples_per_second <= 0:
            return
        with self._lock:
            if self._drain_tuples_per_s == 0.0:
                self._drain_tuples_per_s = tuples_per_second
            else:
                self._drain_tuples_per_s = (
                    0.8 * self._drain_tuples_per_s + 0.2 * tuples_per_second
                )

    # -- lifecycle / introspection --------------------------------------

    def close(self) -> None:
        """Stop admitting; wake blocked consumers.  Queued entries stay
        drainable so shutdown can resolve them."""
        with self._not_empty:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        with self._lock:
            return len(self._heap)

    @property
    def tuples_queued(self) -> int:
        with self._lock:
            return self._tuples_queued

    def __iter__(self) -> Iterator[object]:
        """Snapshot of queued items, in no particular order (debug)."""
        with self._lock:
            return iter([entry[3] for entry in self._heap])
