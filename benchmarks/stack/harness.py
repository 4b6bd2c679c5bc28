"""Measurement plumbing shared by the stack benchmark's workloads.

Nothing here knows a workload: spans kept in memory, the byte-for-byte
oracle, sample statistics, ``/proc`` resource readers, the scratch
directory, and the timed repetition loop.
"""

from __future__ import annotations

import contextlib
import contextvars
import dataclasses
import itertools
import json
import math
import os
import pathlib
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: checkout root (``benchmarks/stack/harness.py`` -> two levels up)
ROOT = pathlib.Path(__file__).resolve().parents[2]
#: everything the benchmark writes lives here; ``.gitignore`` names it
BUILD_DIR = ROOT / ".bench_build"
_CLK_TCK = os.sysconf("SC_CLK_TCK")


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------

class _NullSpan:
    """What ``Trace.span`` yields when tracing is off."""

    def set(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One benchmark-side span around a call into a layer."""

    __slots__ = ("id", "parent", "name", "start", "end", "attrs")

    def __init__(self, span_id: int, parent: Optional[int], name: str, attrs: dict):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.attrs = attrs

    def set(self, **attrs) -> None:
        self.attrs.update(attrs)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Trace:
    """In-memory span recorder; ``trace.jsonl`` is written at exit.

    The current span is a context variable, so spans opened by
    concurrent asyncio tasks (the two gateway streams) and by other
    threads parent correctly without sharing a stack.
    """

    def __init__(self, workload: str, enabled: bool):
        self.workload = workload
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "stack_bench_span", default=None
        )

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        """Record ``name`` (``<layer>.<call>``) around the body."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = Span(next(self._ids), self._current.get(), name, attrs)
        token = self._current.set(span.id)
        span.start = time.perf_counter()
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._current.reset(token)
            self.spans.append(span)

    @contextlib.contextmanager
    def paused(self):
        """Run the body untraced (the paired half of the overhead probe)."""
        previous, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = previous

    # -- reading back (every per-layer metric goes through these) -------

    def named(self, name: str, **match) -> List[Span]:
        """Spans called ``name`` whose attributes include ``match``."""
        return [
            span for span in self.spans
            if span.name == name
            and all(span.attrs.get(key) == value for key, value in match.items())
        ]

    def attr(self, name: str, key: str, **match) -> list:
        return [
            span.attrs[key] for span in self.named(name, **match)
            if key in span.attrs
        ]

    def median_s(self, name: str, **match) -> Optional[float]:
        values = [span.seconds for span in self.named(name, **match)]
        return statistics.median(values) if values else None

    def rate(self, name: str, per: str = "tuples", **match) -> Optional[float]:
        """Median over spans of attribute ``per`` / duration, per second."""
        rates = [
            span.attrs[per] / span.seconds
            for span in self.named(name, **match)
            if span.seconds > 0 and per in span.attrs
        ]
        return statistics.median(rates) if rates else None

    def median_attr(self, name: str, key: str, **match) -> Optional[float]:
        values = self.attr(name, key, **match)
        return float(statistics.median(values)) if values else None

    def write(self, path: pathlib.Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in sorted(self.spans, key=lambda s: s.start):
                handle.write(json.dumps({
                    "id": span.id,
                    "parent": span.parent,
                    "name": span.name,
                    "layer": span.name.split(".", 1)[0],
                    "workload": self.workload,
                    "start": span.start,
                    "end": span.end,
                    "attrs": span.attrs,
                }, default=_jsonable) + "\n")


def _jsonable(value):
    if isinstance(value, np.generic):
        return value.item()
    return str(value)


# ----------------------------------------------------------------------
# The oracle: one offline partition() call, compared byte for byte
# ----------------------------------------------------------------------

def _column(parts, total: int) -> np.ndarray:
    """A per-partition column as one array, partition-major."""
    contiguous = getattr(parts, "contiguous", None)
    column = contiguous() if contiguous is not None else None
    if column is not None and column.shape[0] == total:
        return column
    if len(parts) == 0:
        return np.empty(0, dtype=np.uint32)
    return np.concatenate([np.asarray(part) for part in parts])


@dataclasses.dataclass
class Reference:
    """Everything of a ``PartitionedOutput`` the oracle pins."""

    keys: np.ndarray
    payloads: np.ndarray
    counts: np.ndarray
    lines: np.ndarray
    bytes_read: int
    bytes_written: int
    dummy_slots: int

    @classmethod
    def of(cls, output) -> "Reference":
        counts = np.asarray(output.counts, dtype=np.int64)
        total = int(counts.sum())
        return cls(
            keys=_column(output.partition_keys, total),
            payloads=_column(output.partition_payloads, total),
            counts=counts,
            lines=np.asarray(output.lines_per_partition, dtype=np.int64),
            bytes_read=int(output.bytes_read),
            bytes_written=int(output.bytes_written),
            dummy_slots=int(output.dummy_slots),
        )

    def divergence(self, output) -> Optional[str]:
        """First field of ``output`` (a ``PartitionedOutput`` or another
        :class:`Reference`) that differs from this reference."""
        if output is None:
            return "no output"
        other = output if isinstance(output, Reference) else Reference.of(output)
        for field in ("counts", "lines", "keys", "payloads"):
            if not np.array_equal(getattr(self, field), getattr(other, field)):
                return field
        for field in ("bytes_read", "bytes_written", "dummy_slots"):
            if getattr(self, field) != getattr(other, field):
                return field
        return None


# ----------------------------------------------------------------------
# Sample statistics
# ----------------------------------------------------------------------

def quartiles(samples: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    if len(samples) == 1:
        return (samples[0],) * 3
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q1, q2, q3


def tail_percentile(samples: Sequence[float]) -> Optional[Tuple[int, float]]:
    """The highest whole percentile (99 at most) that still has ten
    samples beyond it, and its value; ``None`` under twenty samples."""
    n = len(samples)
    pct = min(99, math.floor(100.0 * (n - 10) / n)) if n else 0
    if pct < 50:
        return None
    return pct, float(np.percentile(np.asarray(samples), pct))


def summary(samples: Sequence[float], unit: str,
            per_rep: Optional[Sequence[float]] = None) -> dict:
    """Median and quartiles of ``samples``; ``per_rep`` (default: the
    samples themselves) is one value per repetition, what a comparison
    of two runs may treat as independent."""
    q1, q2, q3 = quartiles(samples)
    return {"value": q2, "unit": unit, "q1": q1, "q3": q3, "n": len(samples),
            "per_rep": list(samples if per_rep is None else per_rep)}


# ----------------------------------------------------------------------
# Resource readers
# ----------------------------------------------------------------------

def cpu_seconds(pids: Iterable[int] = ()) -> float:
    """User+system CPU of this process (every thread, nanosecond
    clock) plus the live children ``pids`` (scheduler ticks)."""
    total = time.process_time()
    for pid in pids:
        try:
            fields = pathlib.Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mib(pids: Iterable[int] = ()) -> float:
    """``ru_maxrss`` of this process plus ``VmHWM`` of live children."""
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        try:
            status = pathlib.Path(f"/proc/{pid}/status").read_text()
        except OSError:
            continue
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                total_kib += int(line.split()[1])
    return total_kib / 1024.0


def io_counters() -> Dict[str, int]:
    """``/proc/self/io`` (``wchar``, ``syscw``, ...) as integers."""
    counters = {}
    for line in pathlib.Path("/proc/self/io").read_text().splitlines():
        key, _, value = line.partition(":")
        counters[key.strip()] = int(value)
    return counters


# ----------------------------------------------------------------------
# Scratch space
# ----------------------------------------------------------------------

class Scratch:
    """One temp dir for stores, spill runs and cluster roots, inside
    the checkout and removed at exit; ``tempfile`` defaults point into
    it so nothing the program creates on its own lands elsewhere."""

    def __init__(self, label: str):
        parent = BUILD_DIR / "stack-tmp"
        parent.mkdir(parents=True, exist_ok=True)
        self.path = pathlib.Path(tempfile.mkdtemp(prefix=f"{label}-", dir=parent))
        self._previous = tempfile.tempdir
        tempfile.tempdir = str(self.path)
        self._serial = itertools.count()

    def fresh(self, label: str) -> pathlib.Path:
        """A path no earlier call returned (not created)."""
        return self.path / f"{label}-{next(self._serial)}"

    def cleanup(self) -> None:
        tempfile.tempdir = self._previous
        shutil.rmtree(self.path, ignore_errors=True)


# ----------------------------------------------------------------------
# Timed repetitions
# ----------------------------------------------------------------------

@dataclasses.dataclass
class Rep:
    """What one repetition hands back to the loop.

    ``check`` runs after the clock stopped and returns how many of the
    repetition's ``ops`` diverged from the oracle or were refused.
    ``op_ms`` are per-operation latencies measured inside the
    repetition (chunk round trips, request latencies); when empty the
    repetition's own wall time is the one sample.
    """

    tuples: int
    ops: int
    check: Callable[[], int]
    op_ms: Sequence[float] = ()


@dataclasses.dataclass
class Lane:
    """Samples of one timed loop."""

    wall_s: List[float] = dataclasses.field(default_factory=list)
    cpu_s: List[float] = dataclasses.field(default_factory=list)
    tuples: List[int] = dataclasses.field(default_factory=list)
    #: per repetition, the latencies of the operations inside it
    op_ms: List[List[float]] = dataclasses.field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    @property
    def mtps(self) -> List[float]:
        return [n / s / 1e6 for n, s in zip(self.tuples, self.wall_s)]

    @property
    def pooled_op_ms(self) -> List[float]:
        return [ms for rep in self.op_ms for ms in rep]

    @property
    def cpu_s_per_mtuple(self) -> List[float]:
        return [c / (n / 1e6) for n, c in zip(self.tuples, self.cpu_s)]


def run_lane(
    rep: Callable[[], Rep],
    budget_s: float,
    max_reps: Optional[int] = None,
    child_pids: Iterable[int] = (),
) -> Lane:
    """Repeat ``rep`` until its timed walls add up to ``budget_s`` (or
    ``max_reps`` repetitions ran, whichever comes first).

    Verification runs between repetitions, outside the timed wall.  A
    repetition that raises counts as one failed operation and ends the
    lane: the workloads are chosen so that none does.
    """
    lane = Lane()
    child_pids = tuple(child_pids)
    while True:
        cpu_before = cpu_seconds(child_pids)
        started = time.perf_counter()
        try:
            result = rep()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            lane.attempted += 1
            lane.failed += 1
            return lane
        wall = time.perf_counter() - started
        lane.cpu_s.append(cpu_seconds(child_pids) - cpu_before)
        lane.wall_s.append(wall)
        lane.tuples.append(result.tuples)
        lane.op_ms.append(list(result.op_ms) or [wall * 1e3])
        lane.attempted += result.ops
        lane.failed += result.check()
        if sum(lane.wall_s) >= budget_s:
            return lane
        if max_reps is not None and len(lane.wall_s) >= max_reps:
            return lane
