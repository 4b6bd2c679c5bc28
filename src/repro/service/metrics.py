"""Service observability: counters, latency histograms, throughput.

:class:`MetricsRegistry` is the one registry class of the stack (one
lock, plain dicts, no dependencies); :class:`ServiceMetrics` is the
construction a :class:`~repro.service.service.PartitionService` writes
into, and the gateway builds its own from the name tuples in
:mod:`repro.gateway.metrics`.  It exports in three shapes:

* :meth:`ServiceMetrics.to_dict` — JSON-native; ``repro serve --output``
  writes it and the stack benchmark's ``service.*`` metrics are read
  from it (``benchmarks/stack/README.md``);
* :meth:`ServiceMetrics.to_table` — an
  :class:`~repro.bench.reporting.ExperimentTable` for the CLI's ASCII
  rendering;
* :meth:`ServiceMetrics.to_prometheus` — text-format exposition for a
  Prometheus scrape (see :mod:`repro.obs.export`).

Latencies go into :class:`LatencyHistogram` — fixed log2 buckets from
1 µs to ~67 s, so recording is O(1), thread-safe under the registry
lock, and percentiles are bucket-resolution approximations (plenty for
spotting queueing vs execution time).
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence

from repro.bench.reporting import ExperimentTable

#: log2 bucket upper bounds in microseconds: 1us ... ~67s, then +inf
_BUCKET_COUNT = 27


class LatencyHistogram:
    """Log2-bucketed latency histogram (seconds in, buckets in µs).

    Not thread-safe on its own; :class:`MetricsRegistry` serialises
    access under its lock.
    """

    def __init__(self) -> None:
        self.buckets = [0] * _BUCKET_COUNT
        self.count = 0
        self.total_seconds = 0.0
        self.max_seconds = 0.0

    def record(self, seconds: float) -> None:
        """Add one observation."""
        micros = max(0.0, seconds) * 1e6
        index = 0
        bound = 1.0
        while micros > bound and index < _BUCKET_COUNT - 1:
            bound *= 2.0
            index += 1
        self.buckets[index] += 1
        self.count += 1
        self.total_seconds += max(0.0, seconds)
        self.max_seconds = max(self.max_seconds, max(0.0, seconds))

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.count if self.count else 0.0

    def quantile_seconds(self, q: float) -> float:
        """Approximate quantile: upper bound of the bucket holding it.

        Two edge cases are handled exactly rather than by bucket bound:
        ``q=0`` answers with the *lowest occupied* bucket (a cumulative
        target of zero is satisfied by the empty buckets below the
        data, which used to return the 1 µs bound regardless of where
        the observations sat), and every answer is clamped to
        ``max_seconds`` — in particular the open-ended overflow bucket,
        whose fixed ~67 s bound says nothing about observations that
        may be far larger (or smaller).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if q == 0.0:
            for index, bucket in enumerate(self.buckets):
                if bucket:
                    return min((2.0 ** index) / 1e6, self.max_seconds)
        target = q * self.count
        seen = 0
        for index, bucket in enumerate(self.buckets):
            seen += bucket
            if seen >= target:
                if index == _BUCKET_COUNT - 1:
                    # overflow bucket: max_seconds is the only honest
                    # bound we hold for observations beyond the ladder
                    return self.max_seconds
                return min((2.0 ** index) / 1e6, self.max_seconds)
        return self.max_seconds

    def to_dict(self) -> dict:
        """JSON-native summary plus the raw buckets."""
        return {
            "count": self.count,
            "mean_s": self.mean_seconds,
            "p50_s": self.quantile_seconds(0.50),
            "p95_s": self.quantile_seconds(0.95),
            "p99_s": self.quantile_seconds(0.99),
            "max_s": self.max_seconds,
            "log2_us_buckets": list(self.buckets),
        }


#: every counter the service increments, so exports always carry the
#: full set (zeros included) and dashboards need no existence checks
COUNTERS = (
    "submitted",
    "admitted",
    "rejected",
    "completed",
    "timed_out",
    "failed",
    "degraded",
    "retries",
    "batches",
    "coalesced_requests",
    "split_requests",
    "spilled",
    "fpga_invocations",
    "cpu_invocations",
    # optimizer decision outcomes (repro.optimize wiring)
    "optimized",
    "isolated",
    "preempted_hist",
    "routed_cpu",
    # fused-pipeline plan requests (repro.plan wiring)
    "plans_submitted",
    "plans_completed",
    "plans_fused",
    "plans_staged",
    # PartitionTicket.add_done_callback callbacks that raised
    "callback_errors",
    # batches that escaped their executor into the dispatch loop's guard
    "dispatcher_errors",
)

#: per-request pipeline stages with a latency histogram each
STAGES = ("queue_wait", "execute", "total")


class MetricsRegistry:
    """Thread-safe counters, gauges and per-stage latency histograms.

    One class serves every layer that exports metrics: a layer names
    its counters, stages, initial gauges and Prometheus prefix, and
    gets the lock, the JSON snapshot and the text exposition from here.
    """

    def __init__(
        self,
        counters: Sequence[str],
        stages: Sequence[str],
        gauges: Dict[str, float],
        prefix: str,
        clock=time.monotonic,
    ) -> None:
        self._lock = threading.Lock()
        self._clock = clock
        self._prefix = prefix
        self.started_at = clock()
        self.counters: Dict[str, int] = {name: 0 for name in counters}
        self.histograms: Dict[str, LatencyHistogram] = {
            stage: LatencyHistogram() for stage in stages
        }
        self.gauges: Dict[str, float] = dict(gauges)

    def increment(self, counter: str, amount: int = 1) -> None:
        """Add to a counter (must be one the registry was built with)."""
        with self._lock:
            self.counters[counter] += amount

    def observe(self, stage: str, seconds: float) -> None:
        """Record one latency observation for a stage."""
        with self._lock:
            self.histograms[stage].record(seconds)

    def set_gauge(self, gauge: str, value: float) -> None:
        """Set a point-in-time gauge (queue depth, in-flight tuples)."""
        with self._lock:
            self.gauges[gauge] = value

    def adjust_gauge(self, gauge: str, delta: float) -> float:
        """Add ``delta`` to a gauge; returns the new value."""
        with self._lock:
            self.gauges[gauge] += delta
            return self.gauges[gauge]

    def set_gauge_max(self, gauge: str, value: float) -> None:
        """Raise a high-water-mark gauge to ``value`` if it is higher."""
        with self._lock:
            if value > self.gauges[gauge]:
                self.gauges[gauge] = value

    def snapshot(self) -> dict:
        """Alias of :meth:`to_dict` (conventional metrics name)."""
        return self.to_dict()

    def _derived(self, elapsed: float) -> dict:
        """Extra top-level snapshot entries; called under the lock."""
        return {}

    def to_dict(self) -> dict:
        """JSON-native export of every counter, gauge and histogram."""
        with self._lock:
            elapsed = max(1e-9, self._clock() - self.started_at)
            return {
                "elapsed_s": elapsed,
                **self._derived(elapsed),
                "counters": dict(self.counters),
                "gauges": dict(self.gauges),
                "latency": {
                    stage: hist.to_dict()
                    for stage, hist in self.histograms.items()
                },
            }

    def to_prometheus(self, labels: Optional[Dict[str, str]] = None) -> str:
        """Prometheus text-format exposition of every counter, gauge
        and per-stage latency histogram under the registry's prefix
        (see :func:`repro.obs.export.prometheus_from_snapshot`)."""
        from repro.obs.export import prometheus_from_snapshot

        return prometheus_from_snapshot(
            self.to_dict(), prefix=self._prefix, labels=labels
        )


class ServiceMetrics(MetricsRegistry):
    """The registry one :class:`PartitionService` writes into."""

    def __init__(self, clock=time.monotonic) -> None:
        super().__init__(
            COUNTERS,
            STAGES,
            {"queue_depth": 0, "inflight": 0},
            "repro_service",
            clock,
        )
        self.batch_sizes = LatencyHistogram()  # counts, not seconds

    def observe_batch(self, requests: int) -> None:
        """Record one executed batch's request count."""
        with self._lock:
            self.counters["batches"] += 1
            # reuse the log2 histogram; "seconds" axis holds requests/1e6
            self.batch_sizes.record(requests / 1e6)

    def _derived(self, elapsed: float) -> dict:
        sizes = self.batch_sizes
        return {
            "throughput_rps": self.counters["completed"] / elapsed,
            "mean_batch_size": (
                sizes.total_seconds * 1e6 / sizes.count if sizes.count else 0.0
            ),
        }

    def throughput_rps(self) -> float:
        """Completed requests per second since construction."""
        return self.to_dict()["throughput_rps"]

    def mean_batch_size(self) -> float:
        """Average requests per executed batch."""
        return self.to_dict()["mean_batch_size"]

    def to_table(self, experiment_id: str = "Service") -> ExperimentTable:
        """The ASCII-renderable summary (one row per stage + counters)."""
        data = self.to_dict()
        rows: List[List[object]] = []
        for stage in STAGES:
            latency = data["latency"][stage]
            rows.append(
                [
                    stage,
                    latency["count"],
                    1e3 * latency["mean_s"],
                    1e3 * latency["p50_s"],
                    1e3 * latency["p95_s"],
                    1e3 * latency["p99_s"],
                    1e3 * latency["max_s"],
                ]
            )
        counters = data["counters"]
        note = (
            f"{data['throughput_rps']:.0f} req/s; "
            f"mean batch {data['mean_batch_size']:.1f}; "
            + ", ".join(
                f"{name} {counters[name]}"
                for name in COUNTERS
                if counters[name]
            )
        )
        return ExperimentTable(
            experiment_id=experiment_id,
            title="per-stage latency and outcome counters",
            headers=[
                "stage", "n", "mean ms", "p50 ms", "p95 ms", "p99 ms",
                "max ms",
            ],
            rows=rows,
            note=note,
        )
