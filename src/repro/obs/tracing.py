"""Span-based tracing: follow one request through the whole stack.

The paper's headline claims are latency and throughput claims, yet the
service layer's :class:`~repro.service.metrics.ServiceMetrics` only
aggregates — it cannot answer *where one request's time went* between
``submit()`` and its ticket resolving.  This module is the software
equivalent of instrumenting a dataflow pipeline per stage: a
dependency-free tracer in the shape of OpenTelemetry's span model,
small enough to live on the hot path.

* :class:`Span` — one named, timed operation with attributes, events
  and a parent link.  Spans nest per thread; cross-thread stages (a
  request submitted on a client thread, executed on the dispatcher)
  link explicitly via ``parent=`` or retroactive
  :meth:`Tracer.record_span` calls.
* :class:`Tracer` — thread-safe factory and ring-buffer exporter.
  Finished spans land in a bounded deque (oldest evicted first, with a
  ``dropped`` counter — tracing must never grow memory without bound,
  the same stance as the admission queue it observes).
* :class:`NullTracer` / :data:`NULL_TRACER` — the disabled path.  Every
  instrumentation point costs one no-op call and zero clock reads;
  what an enabled :class:`Tracer` costs is the stack benchmark's
  ``obs.service_traced_overhead_frac``
  (``benchmarks/stack/README.md``).

Exports: :meth:`Tracer.to_jsonl` writes one JSON object per line (the
structured trace log ``repro trace`` and ``repro serve --trace-out``
emit); Prometheus rollups live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

import collections
import itertools
import json
import threading
import time
from typing import Dict, List, Optional

from repro.errors import ReproError

__all__ = [
    "NULL_TRACER",
    "NullTracer",
    "OperatorTimes",
    "Span",
    "Tracer",
    "operator_times",
    "resolve_tracer",
]


class Span:
    """One named, timed operation in a trace.

    Use as a context manager (via :meth:`Tracer.span`) or end manually
    with :meth:`end`.  Attributes are free-form key/value pairs (keep
    values JSON-native); events are timestamped point annotations.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "end_s",
        "attributes",
        "events",
        "_tracer",
    )

    def __init__(
        self,
        name: str,
        trace_id: int,
        span_id: int,
        parent_id: Optional[int],
        start_s: float,
        tracer: Optional["Tracer"],
        attributes: Optional[dict] = None,
    ):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_s = start_s
        self.end_s: Optional[float] = None
        self.attributes: Dict[str, object] = attributes or {}
        self.events: List[dict] = []
        self._tracer = tracer

    # -- recording ------------------------------------------------------

    def set_attribute(self, key: str, value) -> "Span":
        """Attach one attribute; returns the span for chaining."""
        self.attributes[key] = value
        return self

    def set_attributes(self, **attributes) -> "Span":
        """Attach several attributes at once."""
        self.attributes.update(attributes)
        return self

    def add_event(self, name: str, **attributes) -> "Span":
        """Record a timestamped point annotation inside this span."""
        tracer = self._tracer
        stamp = tracer._clock() if tracer is not None else self.start_s
        self.events.append(
            {"name": name, "time_s": stamp, "attributes": attributes}
        )
        return self

    def end(self, end_s: Optional[float] = None) -> None:
        """Finish the span and hand it to the tracer's ring buffer."""
        if self.end_s is not None:  # already ended (idempotent)
            return
        tracer = self._tracer
        self.end_s = (
            end_s
            if end_s is not None
            else (tracer._clock() if tracer is not None else self.start_s)
        )
        if tracer is not None:
            tracer._finish(self)

    # -- reading --------------------------------------------------------

    @property
    def duration_s(self) -> float:
        """Span duration; 0.0 while the span is still open."""
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    def to_dict(self) -> dict:
        """JSON-native form (one JSONL trace-log line)."""
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "attributes": self.attributes,
            "events": self.events,
        }

    # -- context manager ------------------------------------------------

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, _tb) -> None:
        if exc_type is not None:
            self.attributes.setdefault("error", exc_type.__name__)
        if self._tracer is not None:
            self._tracer._pop(self)
        self.end()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Span({self.name!r}, id={self.span_id}, "
            f"parent={self.parent_id}, dur={self.duration_s:.6f}s)"
        )


class Tracer:
    """Thread-safe span factory with a bounded ring-buffer exporter.

    Args:
        capacity: finished-span ring-buffer size; the oldest spans are
            evicted first and counted in :attr:`dropped`.
        clock: injectable monotonic clock.  Defaults to
            ``time.monotonic`` — the same default as the service layer,
            so retroactive :meth:`record_span` timestamps taken from
            service clocks land on the same timeline.

    Nesting is per-thread: :meth:`span` parents the new span under the
    thread's innermost open span.  Stages that hop threads pass
    ``parent=`` explicitly.
    """

    #: instrumentation points can branch on this instead of paying for
    #: argument packing when tracing is off
    enabled = True

    def __init__(self, capacity: int = 65536, clock=time.monotonic):
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._lock = threading.Lock()
        self._spans: "collections.deque[Span]" = collections.deque(
            maxlen=capacity
        )
        self._ids = itertools.count(1)
        self._local = threading.local()
        #: finished spans evicted from the ring buffer
        self.dropped = 0
        #: spans started / finished (diagnostics; finished >= len(buffer))
        self.started = 0
        self.finished = 0

    # -- span creation --------------------------------------------------

    def span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes,
    ) -> Span:
        """Open a span as a context manager::

            with tracer.span("execute", backend="fpga") as span:
                ...
                span.set_attribute("attempts", attempts)

        The span becomes the thread's current span until the ``with``
        block exits; nested :meth:`span` calls parent under it.
        """
        span = self.start_span(name, parent=parent, **attributes)
        self._stack().append(span)
        return span

    def start_span(
        self,
        name: str,
        parent: Optional[Span] = None,
        **attributes,
    ) -> Span:
        """Open a span *without* making it the thread's current span.

        For cross-thread stages (e.g. a request span opened at submit
        time on a client thread and resolved by the dispatcher); end it
        with :meth:`Span.end`.
        """
        if parent is None:
            stack = self._stack()
            parent = stack[-1] if stack else None
        span_id = next(self._ids)
        trace_id = parent.trace_id if parent is not None else span_id
        with self._lock:
            self.started += 1
        return Span(
            name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_s=self._clock(),
            tracer=self,
            attributes=attributes or None,
        )

    def record_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Optional[Span] = None,
        **attributes,
    ) -> Span:
        """Record a retroactive span from explicit timestamps.

        This is how stages measured by other components' clocks enter
        the trace — e.g. ``queue_wait``, whose start is the submit
        timestamp taken on the client thread.  The timestamps must come
        from the same clock the tracer uses.
        """
        span_id = next(self._ids)
        trace_id = parent.trace_id if parent is not None else span_id
        span = Span(
            name,
            trace_id=trace_id,
            span_id=span_id,
            parent_id=parent.span_id if parent is not None else None,
            start_s=start_s,
            tracer=self,
            attributes=attributes or None,
        )
        with self._lock:
            self.started += 1
        span.end(end_s)
        return span

    def current_span(self) -> Optional[Span]:
        """The calling thread's innermost open span, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def add_event(self, name: str, **attributes) -> None:
        """Annotate the current span; silently dropped when none is
        open (instrumentation points never need to check)."""
        span = self.current_span()
        if span is not None:
            span.add_event(name, **attributes)

    # -- export ---------------------------------------------------------

    def export(self) -> List[Span]:
        """Snapshot of finished spans, oldest first (buffer retained)."""
        with self._lock:
            return list(self._spans)

    def drain(self) -> List[Span]:
        """Remove and return all finished spans."""
        with self._lock:
            spans = list(self._spans)
            self._spans.clear()
            return spans

    def to_jsonl(self, path_or_handle) -> int:
        """Write finished spans as JSON Lines; returns the span count.

        Accepts a path or an open text handle.  One span per line,
        oldest first — the structured trace log.
        """
        spans = self.export()
        if hasattr(path_or_handle, "write"):
            for span in spans:
                path_or_handle.write(json.dumps(span.to_dict()) + "\n")
        else:
            with open(path_or_handle, "w") as handle:
                for span in spans:
                    handle.write(json.dumps(span.to_dict()) + "\n")
        return len(spans)

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)

    # -- internals ------------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _pop(self, span: Span) -> None:
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        elif span in stack:  # pragma: no cover - mis-nested exit
            stack.remove(span)

    def _finish(self, span: Span) -> None:
        with self._lock:
            if len(self._spans) == self.capacity:
                self.dropped += 1
            self._spans.append(span)
            self.finished += 1


class _NullSpan:
    """Shared do-nothing span: the disabled tracer's answer to
    everything.  A single instance serves every instrumentation point;
    all methods are no-ops that keep the chaining contracts."""

    __slots__ = ()

    name = "null"
    trace_id = 0
    span_id = 0
    parent_id = None
    start_s = 0.0
    end_s = 0.0
    duration_s = 0.0
    attributes: Dict[str, object] = {}
    events: List[dict] = []

    def set_attribute(self, key, value):
        return self

    def set_attributes(self, **attributes):
        return self

    def add_event(self, name, **attributes):
        return self

    def end(self, end_s=None):
        return None

    def to_dict(self):  # pragma: no cover - never exported
        return {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return None


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracing disabled: every call is a constant-time no-op.

    No clock reads, no allocation beyond keyword packing at the call
    site, nothing retained — the default wiring everywhere, so the
    instrumentation's cost with tracing off stays within measurement
    noise (< 2% on the service load benchmark).
    """

    enabled = False
    capacity = 0
    dropped = 0
    started = 0
    finished = 0

    def span(self, name, parent=None, **attributes):
        """No-op; returns the shared inert span."""
        return _NULL_SPAN

    def start_span(self, name, parent=None, **attributes):
        """No-op; returns the shared inert span."""
        return _NULL_SPAN

    def record_span(self, name, start_s, end_s, parent=None, **attributes):
        """No-op; returns the shared inert span."""
        return _NULL_SPAN

    def current_span(self):
        """Always ``None``: there is never an active span."""
        return None

    def add_event(self, name, **attributes):
        """No-op; the event is discarded."""
        return None

    def export(self):
        """Always empty: nothing is ever recorded."""
        return []

    def drain(self):
        """Always empty: nothing is ever recorded."""
        return []

    def to_jsonl(self, path_or_handle):
        """Writes nothing; returns 0 spans written."""
        return 0

    def __len__(self):
        return 0


#: the shared disabled tracer every instrumented component defaults to
NULL_TRACER = NullTracer()


def resolve_tracer(tracer: "Optional[Tracer | NullTracer]"):
    """``None`` -> :data:`NULL_TRACER`; anything else passes through."""
    return tracer if tracer is not None else NULL_TRACER


class OperatorTimes:
    """Thread-safe per-operator busy-time accumulator for fused passes.

    A fused plan runs many small operator invocations (one build+probe
    per partition, one reduceat per partition, ...) concurrently on the
    engine's workers.  Emitting one span per invocation would bury the
    trace in thousands of micro-spans; this accumulator instead sums
    busy time and call counts per operator name and emits **one
    retroactive span per operator** covering [first start, last end] —
    the per-operator view inside the fused pass that the staged path
    gets for free from its stage boundaries.

    ``busy_s`` can exceed the span's wall-clock duration when calls
    overlap on several workers; the span records both.
    """

    __slots__ = ("_lock", "_acc", "_clock")

    def __init__(self, clock=time.monotonic):
        self._lock = threading.Lock()
        # name -> [calls, busy_s, min_start, max_end]
        self._acc: Dict[str, list] = {}
        self._clock = clock

    def time(self, name: str) -> "_OperatorTimer":
        """Context manager accumulating one operator invocation."""
        return _OperatorTimer(self, name)

    def _record(self, name: str, start_s: float, end_s: float) -> None:
        with self._lock:
            entry = self._acc.get(name)
            if entry is None:
                self._acc[name] = [1, end_s - start_s, start_s, end_s]
            else:
                entry[0] += 1
                entry[1] += end_s - start_s
                if start_s < entry[2]:
                    entry[2] = start_s
                if end_s > entry[3]:
                    entry[3] = end_s

    def emit(self, tracer, parent: Optional[Span] = None) -> None:
        """Emit one retroactive span per accumulated operator."""
        with self._lock:
            snapshot = {k: list(v) for k, v in self._acc.items()}
        for name, (calls, busy_s, start_s, end_s) in sorted(
            snapshot.items()
        ):
            tracer.record_span(
                "op." + name,
                start_s,
                end_s,
                parent=parent,
                calls=calls,
                busy_s=busy_s,
            )

    def to_dict(self) -> Dict[str, dict]:
        """``{operator: {"calls": n, "busy_s": seconds}}`` snapshot."""
        with self._lock:
            return {
                name: {"calls": calls, "busy_s": busy_s}
                for name, (calls, busy_s, _, _) in sorted(self._acc.items())
            }


class _OperatorTimer:
    """One timed operator invocation (see :meth:`OperatorTimes.time`)."""

    __slots__ = ("_times", "_name", "_start")

    def __init__(self, times: OperatorTimes, name: str):
        self._times = times
        self._name = name

    def __enter__(self) -> "_OperatorTimer":
        self._start = self._times._clock()
        return self

    def __exit__(self, *exc) -> None:
        self._times._record(self._name, self._start, self._times._clock())


def operator_times(tracer=None) -> OperatorTimes:
    """An :class:`OperatorTimes` on the tracer's clock (or monotonic).

    Always returns a live accumulator — the per-operator stats also
    feed :class:`~repro.plan.executor.QueryResult` when tracing is off;
    the cost is two clock reads per operator invocation.
    """
    clock = getattr(tracer, "_clock", None) if tracer is not None else None
    return OperatorTimes(clock=clock or time.monotonic)
