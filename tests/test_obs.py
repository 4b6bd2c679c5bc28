"""Tests for the observability layer (repro.obs)."""

from __future__ import annotations

import json
import re
import threading

import numpy as np
import pytest

from repro.core.modes import PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.errors import ReproError
from repro.obs import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    critical_path_table,
    interval_coverage,
    prometheus_from_spans,
    render_prometheus,
    resolve_tracer,
    stage_rollup,
)
from repro.service import (
    PartitionRequest,
    PartitionService,
    ServiceMetrics,
)


class FakeClock:
    """A manually-advanced monotonic clock for deterministic timing."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# ---------------------------------------------------------------------------
# Span lifecycle


class TestSpanLifecycle:
    def test_nesting_links_parent_and_trace(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            assert tracer.current_span() is outer
            with tracer.span("inner") as inner:
                assert inner.parent_id == outer.span_id
                assert inner.trace_id == outer.trace_id
            assert tracer.current_span() is outer
        assert tracer.current_span() is None
        assert outer.parent_id is None
        names = [span.name for span in tracer.export()]
        assert names == ["inner", "outer"]  # finished in close order

    def test_attributes_events_and_json(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("work", tuples=128) as span:
            clock.advance(0.5)
            span.add_event("milestone", step=1)
            clock.advance(0.5)
            span.set_attribute("result", "ok")
        data = span.to_dict()
        assert data["name"] == "work"
        assert data["attributes"] == {"tuples": 128, "result": "ok"}
        assert data["duration_s"] == pytest.approx(1.0)
        assert data["events"][0]["name"] == "milestone"
        assert data["events"][0]["time_s"] == pytest.approx(100.5)
        json.dumps(data)  # JSONL line must be JSON-native

    def test_end_is_idempotent(self):
        tracer = Tracer()
        span = tracer.start_span("once")
        span.end()
        first_end = span.end_s
        span.end()
        assert span.end_s == first_end
        assert tracer.finished == 1
        assert len(tracer) == 1

    def test_exception_records_error_and_ends(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("no")
        [span] = tracer.export()
        assert span.attributes["error"] == "ValueError"
        assert span.end_s is not None
        assert tracer.current_span() is None

    def test_cross_thread_explicit_parent(self):
        tracer = Tracer()
        root = tracer.start_span("request")
        child_holder = {}

        def worker():
            # a fresh thread has no stack; the link must be explicit
            assert tracer.current_span() is None
            with tracer.span("execute", parent=root) as child:
                child_holder["child"] = child

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        root.end()
        child = child_holder["child"]
        assert child.parent_id == root.span_id
        assert child.trace_id == root.trace_id

    def test_record_span_is_retroactive(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        root = tracer.start_span("request")
        span = tracer.record_span(
            "queue_wait", 100.0, 100.25, parent=root, depth=3
        )
        assert span.start_s == 100.0
        assert span.duration_s == pytest.approx(0.25)
        assert span.parent_id == root.span_id
        assert tracer.current_span() is None  # never on the stack
        assert len(tracer) == 1  # already finished

    def test_add_event_without_open_span_is_dropped(self):
        tracer = Tracer()
        tracer.add_event("orphan", n=1)  # must not raise
        assert len(tracer) == 0


# ---------------------------------------------------------------------------
# Ring buffer + thread safety


class TestTracerBuffer:
    def test_ring_buffer_evicts_oldest(self):
        tracer = Tracer(capacity=4)
        for i in range(10):
            tracer.record_span(f"s{i}", 0.0, 1.0)
        assert len(tracer) == 4
        assert tracer.dropped == 6
        assert tracer.started == 10
        assert tracer.finished == 10
        assert [s.name for s in tracer.export()] == ["s6", "s7", "s8", "s9"]

    def test_capacity_validation(self):
        with pytest.raises(ReproError):
            Tracer(capacity=0)

    def test_drain_empties_buffer(self):
        tracer = Tracer()
        tracer.record_span("a", 0.0, 1.0)
        assert len(tracer.drain()) == 1
        assert len(tracer) == 0
        assert tracer.export() == []

    def test_concurrent_spans_from_many_threads(self):
        tracer = Tracer()
        spans_per_thread = 50
        threads = 8
        barrier = threading.Barrier(threads)

        def worker(worker_id: int):
            barrier.wait()
            for i in range(spans_per_thread):
                with tracer.span(f"w{worker_id}", step=i):
                    pass

        pool = [
            threading.Thread(target=worker, args=(t,)) for t in range(threads)
        ]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        spans = tracer.export()
        assert len(spans) == threads * spans_per_thread
        assert tracer.finished == threads * spans_per_thread
        ids = [span.span_id for span in spans]
        assert len(set(ids)) == len(ids)  # ids never collide

    def test_to_jsonl_roundtrip(self, tmp_path):
        tracer = Tracer()
        tracer.record_span("a", 0.0, 1.0, size=1)
        tracer.record_span("b", 1.0, 3.0)
        path = tmp_path / "trace.jsonl"
        assert tracer.to_jsonl(path) == 2
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        records = [json.loads(line) for line in lines]
        assert records[0]["name"] == "a"
        assert records[1]["duration_s"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# Null tracer


class TestNullTracer:
    def test_resolve_tracer_defaults_to_shared_null(self):
        assert resolve_tracer(None) is NULL_TRACER
        tracer = Tracer()
        assert resolve_tracer(tracer) is tracer
        assert isinstance(NULL_TRACER, NullTracer)
        assert NULL_TRACER.enabled is False

    def test_null_tracer_is_inert(self, tmp_path):
        tracer = NullTracer()
        with tracer.span("anything", key="value") as span:
            span.set_attribute("k", 1).set_attributes(a=2).add_event("e")
            tracer.add_event("e2")
        tracer.record_span("retro", 0.0, 1.0)
        assert tracer.start_span("x") is span  # the shared null span
        assert tracer.current_span() is None
        assert tracer.export() == [] and tracer.drain() == []
        assert len(tracer) == 0
        assert tracer.to_jsonl(tmp_path / "empty.jsonl") == 0


# ---------------------------------------------------------------------------
# Prometheus exposition


_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.eE+-]+$"
)


def _check_exposition(text: str) -> None:
    """Structural well-formedness of a text-format 0.0.4 page."""
    assert text.endswith("\n")
    helped, typed = set(), set()
    for line in text.splitlines():
        if line.startswith("# HELP "):
            helped.add(line.split()[2])
        elif line.startswith("# TYPE "):
            typed.add(line.split()[2])
        else:
            assert _SAMPLE_RE.match(line), f"malformed sample: {line!r}"
            base = line.split("{")[0].split(" ")[0]
            family = re.sub(r"_(bucket|sum|count)$", "", base)
            assert base in helped | typed or family in typed, line
    assert helped == typed  # every family declares both


class TestPrometheus:
    def _metrics(self) -> ServiceMetrics:
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.increment("completed", 5)
        metrics.observe("queue_wait", 0.002)
        metrics.observe("execute", 0.010)
        metrics.observe("total", 0.012)
        metrics.observe("total", 7.5)
        metrics.set_gauge("queue_depth", 2)
        clock.advance(1.0)
        return metrics

    def test_snapshot_exposition_well_formed(self):
        text = self._metrics().to_prometheus()
        _check_exposition(text)
        assert "repro_service_completed_total 5" in text
        assert "repro_service_queue_depth 2" in text
        assert "# TYPE repro_service_latency_seconds histogram" in text

    def test_histogram_buckets_cumulative_and_consistent(self):
        text = self._metrics().to_prometheus()
        bucket_re = re.compile(
            r'repro_service_latency_seconds_bucket\{stage="total",'
            r'le="([^"]+)"\} (\d+)'
        )
        counts = [int(m.group(2)) for m in bucket_re.finditer(text)]
        assert counts, "no buckets for stage=total"
        assert counts == sorted(counts)  # cumulative => non-decreasing
        assert counts[-1] == 2  # +Inf bucket equals _count
        assert 'repro_service_latency_seconds_count{stage="total"} 2' in text

    def test_span_exposition_well_formed(self):
        tracer = Tracer()
        tracer.record_span("execute", 0.0, 0.004)
        tracer.record_span("execute", 0.0, 0.016)
        tracer.record_span("queue_wait", 0.0, 0.001)
        text = prometheus_from_spans(tracer.export())
        _check_exposition(text)
        assert 'repro_span_duration_seconds_count{span="execute"} 2' in text
        assert (
            'repro_span_duration_seconds_sum{span="execute"} 0.02' in text
        )

    def test_render_prometheus_combines_both_pages(self):
        tracer = Tracer()
        tracer.record_span("execute", 0.0, 0.004)
        text = render_prometheus(
            self._metrics().to_dict(), tracer.export()
        )
        _check_exposition(text)
        assert "repro_service_latency_seconds" in text
        assert "repro_span_duration_seconds" in text

    def test_label_escaping(self):
        tracer = Tracer()
        tracer.record_span('we"ird\nname', 0.0, 0.001)
        text = prometheus_from_spans(tracer.export())
        assert '\\"' in text and "\\n" in text


# ---------------------------------------------------------------------------
# Rollups, coverage, critical path


class TestRollups:
    def test_stage_rollup_exact_quantiles(self):
        tracer = Tracer()
        for i in range(1, 11):
            tracer.record_span("execute", 0.0, i / 1000.0)
        rollup = stage_rollup(tracer.export())
        stats = rollup["execute"]
        assert stats["count"] == 10
        assert stats["total_s"] == pytest.approx(0.055)
        assert stats["mean_s"] == pytest.approx(0.0055)
        assert stats["max_s"] == pytest.approx(0.010)
        assert stats["p50_s"] <= stats["p95_s"] <= stats["max_s"]

    def test_interval_coverage_unions_overlaps(self):
        tracer = Tracer()
        tracer.record_span("a", 0.0, 1.0)
        tracer.record_span("b", 0.5, 1.5)  # overlaps a
        tracer.record_span("c", 2.0, 3.0)  # gap 1.5..2.0
        covered, wall, fraction = interval_coverage(tracer.export())
        assert covered == pytest.approx(2.5)
        assert wall == pytest.approx(3.0)
        assert fraction == pytest.approx(2.5 / 3.0)

    def test_interval_coverage_explicit_window(self):
        tracer = Tracer()
        tracer.record_span("a", 1.0, 2.0)
        covered, wall, fraction = interval_coverage(
            tracer.export(), window=(0.0, 4.0)
        )
        assert covered == pytest.approx(1.0)
        assert wall == pytest.approx(4.0)
        assert fraction == pytest.approx(0.25)

    def test_interval_coverage_empty(self):
        assert interval_coverage([]) == (0.0, 0.0, 0.0)

    def test_critical_path_table_sorted_by_total(self):
        tracer = Tracer()
        tracer.record_span("small", 0.0, 0.1)
        tracer.record_span("big", 0.0, 2.0)
        table = critical_path_table(tracer.export(), title="test")
        assert table.headers[0] == "stage"
        assert [row[0] for row in table.rows] == ["big", "small"]
        assert "cover" in table.note
        table.render()  # must not raise


# ---------------------------------------------------------------------------
# End-to-end: tracer threaded through the whole stack


class TestEndToEndTracing:
    def test_traced_service_run_covers_wall_time(self, rng):
        tracer = Tracer()
        config = PartitionerConfig(num_partitions=16)
        relations = [
            rng.integers(0, 2**32, size=2048, dtype=np.uint64).astype(
                np.uint32
            )
            for _ in range(16)
        ]
        with PartitionService(tracer=tracer) as service:
            tickets = [
                service.submit(
                    PartitionRequest(relation=keys, config=config)
                )
                for keys in relations
            ]
            for ticket in tickets:
                assert ticket.result(timeout=60).ok
        spans = tracer.export()
        names = {span.name for span in spans}
        # every pipeline stage is attributed
        assert {"request", "queue_wait", "schedule", "batch",
                "execute", "resolve"} <= names
        assert names & {"fpga.partition", "fpga.partition_many"}
        # the acceptance bar: spans explain >= 95% of the traced window
        _, _, fraction = interval_coverage(spans)
        assert fraction >= 0.95
        requests = [s for s in spans if s.name == "request"]
        assert len(requests) == len(relations)
        assert all(s.attributes["status"] == "ok" for s in requests)
        # queue_wait spans parent under their request span
        request_ids = {s.span_id for s in requests}
        waits = [s for s in spans if s.name == "queue_wait"]
        assert waits and all(s.parent_id in request_ids for s in waits)

    def test_untraced_service_records_nothing(self, rng):
        keys = rng.integers(0, 2**32, size=512, dtype=np.uint64).astype(
            np.uint32
        )
        with PartitionService() as service:
            assert service.submit(
                PartitionRequest(relation=keys)
            ).result(timeout=60).ok
        assert isinstance(service.tracer, NullTracer)
        assert service.tracer.export() == []

    def test_kernel_span_carries_traffic_attributes(self, rng):
        tracer = Tracer()
        keys = rng.integers(0, 2**32, size=4096, dtype=np.uint64).astype(
            np.uint32
        )
        partitioner = FpgaPartitioner(
            PartitionerConfig(num_partitions=16), tracer=tracer
        )
        output = partitioner.partition(keys)
        [span] = [s for s in tracer.export() if s.name == "fpga.partition"]
        assert span.attributes["tuples"] == 4096
        assert span.attributes["bytes_read"] == output.bytes_read
        assert span.attributes["bytes_written"] == output.bytes_written

    def test_engine_morsel_spans_nest_under_kernel(self, rng):
        tracer = Tracer()
        keys = rng.integers(0, 2**32, size=4096, dtype=np.uint64).astype(
            np.uint32
        )
        partitioner = FpgaPartitioner(
            PartitionerConfig(num_partitions=16),
            engine="serial",
            tracer=tracer,
        )
        partitioner.partition(keys)
        partitioner.close()
        spans = tracer.export()
        kernel = [s for s in spans if s.name == "fpga.partition"][0]
        morsels = [s for s in spans if s.name.startswith("morsel.")]
        assert morsels
        assert {s.name for s in morsels} >= {"morsel.histogram"}
        assert all(s.trace_id == kernel.trace_id for s in morsels)
        assert all("worker" in s.attributes for s in morsels)

    def test_circuit_span_carries_cycle_stats(self, rng):
        tracer = Tracer()
        keys = rng.integers(0, 2**32, size=256, dtype=np.uint64).astype(
            np.uint32
        )
        partitioner = FpgaPartitioner(
            PartitionerConfig(num_partitions=8), tracer=tracer
        )
        result = partitioner.simulate(keys)
        [span] = [s for s in tracer.export() if s.name == "circuit.run"]
        assert span.attributes["cycles"] == result.stats.cycles
        assert span.attributes["lines_out"] == result.stats.lines_out
        assert (
            span.attributes["forwarding_hits"]
            == result.stats.forwarding_hits
        )

    def test_scheduler_events_record_decisions(self, rng):
        tracer = Tracer()
        config = PartitionerConfig(num_partitions=16)
        small = [
            rng.integers(0, 2**32, size=256, dtype=np.uint64).astype(
                np.uint32
            )
            for _ in range(8)
        ]
        big = rng.integers(0, 2**32, size=4096, dtype=np.uint64).astype(
            np.uint32
        )
        with PartitionService(
            tracer=tracer, split_tuples=4096, linger_s=0.005
        ) as service:
            tickets = [
                service.submit(PartitionRequest(relation=k, config=config))
                for k in small + [big]
            ]
            for ticket in tickets:
                assert ticket.result(timeout=60).ok
        events = [
            event["name"]
            for span in tracer.export()
            for event in span.events
        ]
        assert "scheduler.split" in events or "scheduler.coalesce" in events
