"""Tests for the partitioning service layer (repro.service)."""

from __future__ import annotations

import collections
import pathlib
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import partitioner as partitioner_module
from repro.core.modes import OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.errors import ReproError
from repro.service import (
    AdmissionQueue,
    BackendFault,
    BatchingScheduler,
    CircuitBreaker,
    DegradationPolicy,
    FaultInjector,
    LatencyHistogram,
    MetricsRegistry,
    PartitionRequest,
    PartitionService,
    QueueFullError,
    RequestStatus,
    ServiceMetrics,
    TokenBucket,
    request_signature,
)
from tests.conftest import needs_native


class FakeClock:
    """A manually-advanced monotonic clock for deterministic timing."""

    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def assert_outputs_equal(left, right):
    assert np.array_equal(left.counts, right.counts)
    assert np.array_equal(
        left.lines_per_partition, right.lines_per_partition
    )
    for a, b in zip(left.partition_keys, right.partition_keys):
        assert np.array_equal(a, b)
    for a, b in zip(left.partition_payloads, right.partition_payloads):
        assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# AdmissionQueue


class TestAdmissionQueue:
    def test_priority_order_fifo_within_level(self):
        queue = AdmissionQueue(max_requests=10)
        queue.offer("low-1", priority=0, tuples=1)
        queue.offer("high-1", priority=2, tuples=1)
        queue.offer("low-2", priority=0, tuples=1)
        queue.offer("high-2", priority=2, tuples=1)
        order = [queue.take(0) for _ in range(4)]
        assert order == ["high-1", "high-2", "low-1", "low-2"]

    def test_bounded_rejection(self):
        queue = AdmissionQueue(max_requests=2)
        assert queue.offer("a", 0, 1) and queue.offer("b", 0, 1)
        assert not queue.offer("c", 0, 1)
        assert len(queue) == 2

    def test_tuple_budget(self):
        queue = AdmissionQueue(max_requests=100, max_tuples=1000)
        assert queue.offer("big", 0, 900)
        assert not queue.offer("too-much", 0, 200)
        assert queue.offer("fits", 0, 100)
        assert queue.tuples_queued == 1000

    def test_oversized_request_admitted_when_queue_empty(self):
        # a request larger than the whole tuple budget must not be
        # permanently unadmittable
        queue = AdmissionQueue(max_requests=4, max_tuples=100)
        assert queue.offer("huge", 0, 10**6)

    def test_retry_after_hint_uses_drain_rate(self):
        queue = AdmissionQueue(max_requests=4)
        queue.offer("a", 0, 5000)
        queue.note_drain_rate(10_000.0)
        assert queue.retry_after_hint() == pytest.approx(0.5)

    def test_retry_after_hint_bounded(self):
        queue = AdmissionQueue(max_requests=4)
        assert 0.01 <= queue.retry_after_hint() <= 5.0
        queue.offer("a", 0, 10**12)
        queue.note_drain_rate(1.0)
        assert queue.retry_after_hint() == 5.0

    def test_close_rejects_new_but_drains_old(self):
        queue = AdmissionQueue()
        queue.offer("queued", 0, 1)
        queue.close()
        assert not queue.offer("late", 0, 1)
        assert queue.take(0) == "queued"
        assert queue.take(0) is None

    def test_drain_respects_limit(self):
        queue = AdmissionQueue()
        for i in range(5):
            queue.offer(i, 0, 1)
        assert queue.drain(3) == [0, 1, 2]
        assert queue.drain(10) == [3, 4]
        assert queue.drain(0) == []

    def test_take_timeout(self):
        assert AdmissionQueue().take(timeout=0.01) is None

    def test_validation(self):
        with pytest.raises(ReproError):
            AdmissionQueue(max_requests=0)
        with pytest.raises(ReproError):
            AdmissionQueue(max_tuples=0)

    def test_queue_full_error_carries_hint(self):
        err = QueueFullError(depth=7, retry_after=0.25)
        assert err.depth == 7 and err.retry_after == 0.25
        assert "retry" in str(err)


# ---------------------------------------------------------------------------
# BatchingScheduler


class _Entry:
    def __init__(self, signature, tuples, tag=None):
        self.signature = signature
        self.tuples = tuples
        self.tag = tag


class TestBatchingScheduler:
    def test_signature_separates_configs(self):
        a = PartitionerConfig(num_partitions=64)
        b = PartitionerConfig(num_partitions=128)
        assert request_signature(a) == request_signature(a)
        assert request_signature(a) != request_signature(b)

    def test_coalesces_same_signature(self):
        sched = BatchingScheduler(max_batch_requests=8)
        batches = sched.form_batches([_Entry("s", 10) for _ in range(5)])
        assert len(batches) == 1
        assert len(batches[0]) == 5 and batches[0].total_tuples == 50

    def test_signature_groups_kept_apart(self):
        sched = BatchingScheduler()
        batches = sched.form_batches(
            [_Entry("a", 1), _Entry("b", 1), _Entry("a", 1)]
        )
        assert [b.signature for b in batches] == ["a", "b"]
        assert len(batches[0]) == 2

    def test_request_cap_opens_new_batch(self):
        sched = BatchingScheduler(max_batch_requests=2)
        batches = sched.form_batches([_Entry("s", 1) for _ in range(5)])
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_tuple_cap_opens_new_batch(self):
        sched = BatchingScheduler(max_batch_tuples=100, split_tuples=1000)
        batches = sched.form_batches([_Entry("s", 60), _Entry("s", 60)])
        assert [len(b) for b in batches] == [1, 1]

    def test_oversized_goes_solo_split(self):
        sched = BatchingScheduler(split_tuples=1000)
        batches = sched.form_batches(
            [_Entry("s", 10), _Entry("s", 5000), _Entry("s", 10)]
        )
        assert [b.split for b in batches] == [False, True]
        assert len(batches[0]) == 2 and len(batches[1]) == 1

    def test_validation(self):
        with pytest.raises(ReproError):
            BatchingScheduler(max_batch_requests=0)
        with pytest.raises(ReproError):
            BatchingScheduler(max_batch_tuples=0)
        with pytest.raises(ReproError):
            BatchingScheduler(linger_s=-1)

    def test_collect_drains_queue(self):
        queue = AdmissionQueue()
        for i in range(4):
            queue.offer(_Entry("s", 1, tag=i), priority=0, tuples=1)
        sched = BatchingScheduler(linger_s=0.0)
        batches = sched.collect(queue, timeout=0.1)
        assert len(batches) == 1
        assert [e.tag for e in batches[0].entries] == [0, 1, 2, 3]
        assert len(queue) == 0

    def test_collect_timeout_returns_empty(self):
        assert BatchingScheduler().collect(AdmissionQueue(), 0.01) == []


# ---------------------------------------------------------------------------
# Metrics


class TestMetrics:
    def test_histogram_stats(self):
        hist = LatencyHistogram()
        for value in (0.001, 0.002, 0.004, 0.008):
            hist.record(value)
        assert hist.count == 4
        assert hist.mean_seconds == pytest.approx(0.00375)
        assert hist.max_seconds == 0.008
        assert hist.quantile_seconds(0.0) <= hist.quantile_seconds(1.0)

    def test_histogram_export(self):
        hist = LatencyHistogram()
        hist.record(0.5)
        data = hist.to_dict()
        assert data["count"] == 1
        assert len(data["log2_us_buckets"]) == 27

    def test_counters_and_export(self):
        clock = FakeClock()
        metrics = ServiceMetrics(clock=clock)
        metrics.increment("completed", 10)
        metrics.observe("execute", 0.01)
        metrics.observe_batch(4)
        metrics.set_gauge("queue_depth", 3)
        clock.advance(2.0)
        data = metrics.to_dict()
        assert data["counters"]["completed"] == 10
        assert data["counters"]["batches"] == 1
        assert data["gauges"]["queue_depth"] == 3
        assert data["throughput_rps"] == pytest.approx(5.0)
        assert metrics.mean_batch_size() == pytest.approx(4.0)
        assert metrics.throughput_rps() == pytest.approx(5.0)

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceMetrics().increment("nope")

    def test_to_table_renders(self):
        metrics = ServiceMetrics()
        metrics.increment("completed")
        metrics.observe("total", 0.005)
        table = metrics.to_table()
        assert table.headers[0] == "stage"
        assert len(table.rows) == 3
        assert "completed 1" in table.note


# ---------------------------------------------------------------------------
# Degradation primitives


class TestDegradation:
    def test_fault_injector_fail_next(self):
        injector = FaultInjector()
        injector.check()  # no fault armed
        injector.fail_next(2)
        with pytest.raises(BackendFault):
            injector.check()
        with pytest.raises(BackendFault):
            injector.check()
        injector.check()
        assert injector.injected == 2

    def test_fault_injector_rate_deterministic(self):
        outcomes = []
        for _ in range(2):
            injector = FaultInjector(fail_rate=0.5, seed=42)
            run = []
            for _ in range(20):
                try:
                    injector.check()
                    run.append(False)
                except BackendFault:
                    run.append(True)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert any(outcomes[0]) and not all(outcomes[0])

    def test_fault_injector_validation(self):
        with pytest.raises(ReproError):
            FaultInjector(fail_rate=1.5)

    def test_token_bucket_drains_and_refills(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=1000, burst_tuples=1000, clock=clock
        )
        assert bucket.try_acquire(800)
        assert not bucket.try_acquire(800)  # saturated
        clock.advance(0.7)  # +700 tuples of capacity
        assert bucket.try_acquire(800)

    def test_token_bucket_burst_cap(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=1000, burst_tuples=500, clock=clock
        )
        clock.advance(100.0)
        assert not bucket.try_acquire(501)
        assert bucket.try_acquire(500)

    def test_token_bucket_validation(self):
        with pytest.raises(ReproError):
            TokenBucket(tuples_per_second=0)

    def test_circuit_breaker_state_machine(self):
        clock = FakeClock()
        breaker = CircuitBreaker(
            failure_threshold=2, cooldown_s=1.0, clock=clock
        )
        assert breaker.state == CircuitBreaker.CLOSED
        breaker.record_failure()
        assert breaker.allow()  # below threshold
        breaker.record_failure()
        assert breaker.state == CircuitBreaker.OPEN
        assert not breaker.allow()
        clock.advance(1.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        assert breaker.allow()  # the probe
        breaker.record_failure()  # probe failed -> re-open immediately
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.5)
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED

    def test_policy_refusal_reasons(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=100, burst_tuples=100, clock=clock
        )
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=10.0, clock=clock
        )
        policy = DegradationPolicy(saturation=bucket, breaker=breaker)
        assert policy.admit_fpga(50) is None
        assert policy.admit_fpga(100) == "saturated"
        policy.record_outcome(False)
        assert policy.admit_fpga(1) == "breaker-open"


# ---------------------------------------------------------------------------
# PartitionService end-to-end


@pytest.fixture
def relations(rng):
    sizes = rng.integers(200, 2000, size=12)
    return [
        rng.integers(0, 2**32, size=int(n), dtype=np.uint64).astype(
            np.uint32
        )
        for n in sizes
    ]


class TestPartitionService:
    def test_results_byte_identical_to_direct_calls(self, relations):
        config = PartitionerConfig(num_partitions=64)
        with PartitionService(max_batch_requests=8) as service:
            tickets = [
                service.submit(PartitionRequest(relation=r, config=config))
                for r in relations
            ]
            responses = [t.result(timeout=30) for t in tickets]
        reference = FpgaPartitioner(config)
        for response, keys in zip(responses, relations):
            assert response.status is RequestStatus.OK
            assert response.backend == "fpga"
            assert not response.degraded
            assert_outputs_equal(response.output, reference.partition(keys))

    def test_mixed_configs_batch_separately_and_stay_correct(self, relations):
        configs = [
            PartitionerConfig(num_partitions=32),
            PartitionerConfig(num_partitions=64, output_mode=OutputMode.PAD,
                              pad_tuples=4096),
        ]
        with PartitionService() as service:
            tickets = [
                service.submit(
                    PartitionRequest(relation=r, config=configs[i % 2])
                )
                for i, r in enumerate(relations)
            ]
            responses = [t.result(timeout=30) for t in tickets]
        for i, (response, keys) in enumerate(zip(responses, relations)):
            assert response.status is RequestStatus.OK
            reference = FpgaPartitioner(configs[i % 2])
            assert_outputs_equal(response.output, reference.partition(keys))

    def test_oversized_request_split_solo(self, rng):
        keys = rng.integers(0, 2**32, size=50_000, dtype=np.uint64).astype(
            np.uint32
        )
        config = PartitionerConfig(num_partitions=64)
        with PartitionService(split_tuples=10_000) as service:
            response = service.submit(
                PartitionRequest(relation=keys, config=config)
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.batch_size == 1
        assert service.metrics.to_dict()["counters"]["split_requests"] == 1
        assert_outputs_equal(
            response.output, FpgaPartitioner(config).partition(keys)
        )

    def test_degrades_to_cpu_after_retries(self, relations):
        injector = FaultInjector()
        policy = DegradationPolicy(fault_injector=injector)
        with PartitionService(
            policy=policy, max_retries=1, retry_backoff_s=0.0
        ) as service:
            injector.fail_next(10)  # > retries: all FPGA attempts fault
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.degraded and response.backend == "cpu"
        assert response.attempts == 2
        counters = service.metrics.to_dict()["counters"]
        assert counters["degraded"] == 1
        assert counters["retries"] == 1
        assert counters["cpu_invocations"] == 1

    def test_transient_fault_recovers_on_retry(self, relations):
        injector = FaultInjector()
        policy = DegradationPolicy(fault_injector=injector)
        with PartitionService(
            policy=policy, max_retries=2, retry_backoff_s=0.0
        ) as service:
            injector.fail_next(1)
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.backend == "fpga" and not response.degraded
        assert response.attempts == 2

    def test_open_breaker_routes_straight_to_cpu(self, relations):
        clock_breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
        clock_breaker.record_failure()  # pre-open
        policy = DegradationPolicy(breaker=clock_breaker)
        with PartitionService(policy=policy) as service:
            response = service.submit(
                PartitionRequest(relation=relations[0])
            ).result(timeout=30)
        assert response.status is RequestStatus.OK
        assert response.degraded and response.degrade_reason == "breaker-open"

    def test_rejection_carries_retry_after(self, relations):
        with PartitionService(
            max_queue_requests=1, linger_s=0.2
        ) as service:
            rejected = None
            for keys in relations * 4:
                ticket = service.submit(PartitionRequest(relation=keys))
                if ticket.done():
                    response = ticket.result()
                    if response.status is RequestStatus.REJECTED:
                        rejected = response
                        break
            assert rejected is not None
            assert rejected.retry_after and rejected.retry_after > 0
            assert service.metrics.to_dict()["counters"]["rejected"] >= 1

    def test_raise_on_reject(self, relations):
        with PartitionService(
            max_queue_requests=1, linger_s=0.2
        ) as service:
            with pytest.raises(QueueFullError):
                for keys in relations * 4:
                    service.submit(
                        PartitionRequest(relation=keys),
                        raise_on_reject=True,
                    )

    def test_expired_deadline_times_out(self, relations):
        with PartitionService() as service:
            response = service.submit(
                PartitionRequest(relation=relations[0], deadline_s=-0.001)
            ).result(timeout=30)
        assert response.status is RequestStatus.TIMED_OUT
        assert service.metrics.to_dict()["counters"]["timed_out"] == 1

    def test_ticket_wait_timeout(self, relations):
        service = PartitionService()  # never started -> never resolves
        with pytest.raises(ReproError):
            service.submit(PartitionRequest(relation=relations[0]))
        service.stop()

    def test_stop_drains_queued_work(self, relations):
        service = PartitionService(linger_s=0.0).start()
        tickets = [
            service.submit(PartitionRequest(relation=r)) for r in relations
        ]
        service.stop()
        for ticket in tickets:
            assert ticket.result(timeout=5).status in (
                RequestStatus.OK,
                RequestStatus.TIMED_OUT,
            )
        with pytest.raises(ReproError):
            service.start()  # stopped services do not restart

    def test_blocking_partition_helper(self, relations):
        config = PartitionerConfig(num_partitions=32)
        with PartitionService() as service:
            response = service.partition(
                relations[0], config=config, timeout=30
            )
        assert response.status is RequestStatus.OK
        assert_outputs_equal(
            response.output,
            FpgaPartitioner(config).partition(relations[0]),
        )

    def test_metrics_account_every_request(self, relations):
        with PartitionService() as service:
            tickets = [
                service.submit(PartitionRequest(relation=r))
                for r in relations
            ]
            for ticket in tickets:
                ticket.result(timeout=30)
            counters = service.metrics.to_dict()["counters"]
        assert counters["submitted"] == len(relations)
        assert counters["admitted"] == counters["submitted"]
        assert counters["completed"] == len(relations)
        assert counters["fpga_invocations"] >= 1
        latency = service.metrics.to_dict()["latency"]
        assert latency["total"]["count"] == len(relations)
        assert latency["queue_wait"]["count"] == len(relations)

    def test_default_spill_root_removed_on_stop(self, rng):
        tmp = pathlib.Path(tempfile.gettempdir())
        before = set(tmp.glob("repro-spill-*"))
        keys = rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(
            np.uint32
        )
        with PartitionService(
            spill_tuples=10_000, spill_bytes_in_memory=100_000
        ) as service:
            response = service.partition(keys, timeout=60)
            assert response.ok and response.backend == "spill"
            created = set(tmp.glob("repro-spill-*")) - before
            assert len(created) == 1
            response.spill.cleanup()
        assert set(tmp.glob("repro-spill-*")) == before

    def test_default_spill_root_kept_while_a_run_is_alive(self, rng):
        tmp = pathlib.Path(tempfile.gettempdir())
        before = set(tmp.glob("repro-spill-*"))
        keys = rng.integers(0, 2**32, size=20_000, dtype=np.uint64).astype(
            np.uint32
        )
        with PartitionService(
            spill_tuples=10_000, spill_bytes_in_memory=100_000
        ) as service:
            response = service.partition(keys, timeout=60)
        # the caller still owns the run directory: its root must stay
        (root,) = set(tmp.glob("repro-spill-*")) - before
        assert int(response.output.counts.sum()) == keys.shape[0]
        response.spill.cleanup()
        root.rmdir()


# ---------------------------------------------------------------------------
# Regression tests: service-tier bugfix sweep


class TestDoneCallbacks:
    """``PartitionTicket.add_done_callback``: the response reaches the
    callback whatever the terminal status, on the resolving thread or
    at once, and a callback that raises cannot hurt the dispatcher."""

    def test_before_and_after_resolution(self, relations):
        seen = []
        gate = threading.Event()
        with PartitionService(linger_s=0.0) as service:
            # park the dispatcher inside the first request's callback so
            # the second registration certainly precedes its resolution
            first = service.submit(PartitionRequest(relation=relations[0]))
            first.add_done_callback(lambda response: gate.wait(10))
            second = service.submit(PartitionRequest(relation=relations[1]))
            ran = threading.Event()
            second.add_done_callback(
                lambda response: (
                    seen.append(
                        ("before", response, threading.current_thread().name)
                    ),
                    ran.set(),
                )
            )
            assert not second.done()
            gate.set()
            response = second.result(timeout=30)
            # waiters wake before callbacks run, as with futures
            assert ran.wait(30)
            second.add_done_callback(
                lambda response: seen.append(
                    ("after", response, threading.current_thread().name)
                )
            )
        assert response.status is RequestStatus.OK
        assert [(tag, got) for tag, got, _ in seen] == [
            ("before", response), ("after", response)
        ]
        # registered first: ran on the dispatcher; registered after the
        # fact: ran right here
        assert seen[0][2] == "partition-service-dispatcher"
        assert seen[1][2] == threading.current_thread().name
        assert service.metrics.to_dict()["counters"]["callback_errors"] == 0

    def test_callbacks_run_in_registration_order(self, relations):
        order = []
        gate = threading.Event()
        with PartitionService(linger_s=0.0) as service:
            blocker = service.submit(PartitionRequest(relation=relations[0]))
            blocker.add_done_callback(lambda response: gate.wait(10))
            ticket = service.submit(PartitionRequest(relation=relations[1]))
            for index in range(4):
                ticket.add_done_callback(
                    lambda response, index=index: order.append(index)
                )
            gate.set()
            ticket.result(timeout=30)
        assert order == [0, 1, 2, 3]

    def test_rejected_ticket_calls_back_immediately(self, relations):
        with PartitionService(max_queue_requests=1, linger_s=0.2) as service:
            for keys in relations * 4:
                ticket = service.submit(PartitionRequest(relation=keys))
                if (
                    ticket.done()
                    and ticket.result().status is RequestStatus.REJECTED
                ):
                    break
            else:
                pytest.fail("the one-slot queue never rejected")
            seen = []
            ticket.add_done_callback(seen.append)
            assert [r.status for r in seen] == [RequestStatus.REJECTED]
            assert seen[0].retry_after > 0

    def test_timed_out_ticket_calls_back(self, relations):
        seen = []
        done = threading.Event()
        with PartitionService() as service:
            ticket = service.submit(
                PartitionRequest(relation=relations[0], deadline_s=-0.001)
            )
            ticket.add_done_callback(
                lambda response: (seen.append(response), done.set())
            )
            assert done.wait(30)
        assert [r.status for r in seen] == [RequestStatus.TIMED_OUT]

    def test_failed_ticket_calls_back(self, relations, monkeypatch):
        from repro.cpu.partitioner import CpuPartitioner

        def broken(self, *args, **kwargs):
            raise RuntimeError("cpu backend down")

        monkeypatch.setattr(CpuPartitioner, "partition", broken)
        injector = FaultInjector()
        seen = []
        done = threading.Event()
        with PartitionService(
            policy=DegradationPolicy(fault_injector=injector),
            max_retries=0,
        ) as service:
            injector.fail_next(10)
            ticket = service.submit(PartitionRequest(relation=relations[0]))
            ticket.add_done_callback(
                lambda response: (seen.append(response), done.set())
            )
            assert done.wait(30)
        assert [r.status for r in seen] == [RequestStatus.FAILED]
        assert "cpu backend down" in seen[0].error

    def test_raising_callback_leaves_the_dispatcher_alive(self, relations):
        def explode(response):
            raise RuntimeError("client bug")

        config = PartitionerConfig(num_partitions=32)
        with PartitionService() as service:
            ticket = service.submit(
                PartitionRequest(relation=relations[0], config=config)
            )
            ticket.add_done_callback(explode)
            later = []
            ticket.add_done_callback(later.append)
            first = ticket.result(timeout=30)
            # an already-resolved ticket runs it right here: still caught
            ticket.add_done_callback(explode)
            assert service._dispatcher.is_alive()
            response = service.submit(
                PartitionRequest(relation=relations[1], config=config)
            ).result(timeout=30)
            counters = service.metrics.to_dict()["counters"]
        assert first.status is RequestStatus.OK and later == [first]
        assert response.status is RequestStatus.OK
        assert_outputs_equal(
            response.output, FpgaPartitioner(config).partition(relations[1])
        )
        assert counters["callback_errors"] == 2
        assert counters["completed"] == 2


# ---------------------------------------------------------------------------
# One way through the dispatcher: request errors, the guard, one resolver

PAD = PartitionerConfig(
    num_partitions=64, output_mode=OutputMode.PAD, pad_tuples=1024
)
#: one key, 20,000 times: overflows any PAD partition of ``PAD``
OVERFLOWING = np.zeros(20_000, dtype=np.uint32)


def _boom(*args, **kwargs):
    raise RuntimeError("boom")


def _park_dispatcher(service, keys) -> threading.Event:
    """Park the dispatcher inside a done-callback until the returned
    event is set, so everything submitted meanwhile is collected in one
    go.  The parked-on requests expire in the queue (``TIMED_OUT``), so
    they touch no executor and no batch counter."""
    gate, parked, inline = (threading.Event() for _ in range(3))

    def park(response):
        if threading.current_thread() is service._dispatcher:
            parked.set()
            gate.wait(30)
        else:
            inline.set()  # already resolved: ran right here, try again

    for _ in range(100):
        inline.clear()
        service.submit(
            PartitionRequest(relation=keys, deadline_s=-0.001)
        ).add_done_callback(park)
        if not inline.is_set():
            assert parked.wait(30)
            return gate
    pytest.fail("could not register a callback ahead of resolution")


def _settled_counters(service) -> dict:
    """Counters of a stopped service; every admitted request must have
    ended in exactly one of the three dispatcher-side states."""
    snapshot = service.metrics.to_dict()
    assert snapshot["gauges"]["inflight"] == 0
    counters = snapshot["counters"]
    assert counters["admitted"] == (
        counters["completed"] + counters["failed"] + counters["timed_out"]
    )
    return counters


class _FixedOptimizer:
    """An optimizer hook that answers every request with one decision."""

    def __init__(self, backend="fpga", pad_strategy="keep", isolate=()):
        from repro.optimize.optimizer import Decision

        self.decision = Decision(
            backend, pad_strategy, isolate, False, 0.0, "test"
        )
        self.observed = []
        self.fail_observe = 0

    def decide(self, keys, config, reuse=True):
        return self.decision

    def observe(self, backend, tuples, seconds):
        if self.fail_observe:
            self.fail_observe -= 1
            raise RuntimeError("observe hook broke")
        self.observed.append(backend)


def _join_plan():
    from repro.plan import join_groupby_query
    from repro.workloads.relations import make_workload

    workload = make_workload("A", scale=2048, seed=6)
    return join_groupby_query(workload.r, workload.s, aggregate="sum")


class TestRequestErrors:
    """A request's own error fails that ticket, typed, and nothing else:
    not the dispatcher, not its batch neighbours, not the breaker."""

    def test_pad_overflow_under_raise_fails_typed(self, relations):
        # at the parent this exception left _dispatch_loop: the thread
        # died and every later ticket hung
        with PartitionService() as service:
            failed = service.submit(
                PartitionRequest(relation=OVERFLOWING, config=PAD)
            ).result(timeout=30)
            assert service._dispatcher.is_alive()
            after = service.submit(
                PartitionRequest(relation=relations[0], config=PAD)
            ).result(timeout=30)
        assert failed.status is RequestStatus.FAILED
        assert failed.error_type == "PartitionOverflowError"
        assert failed.error.startswith("PartitionOverflowError: ")
        assert failed.output is None and failed.backend is None
        assert after.status is RequestStatus.OK and after.error_type is None
        assert_outputs_equal(
            after.output, FpgaPartitioner(PAD).partition(relations[0])
        )
        counters = _settled_counters(service)
        assert (counters["failed"], counters["completed"]) == (1, 1)
        assert counters["degraded"] == counters["cpu_invocations"] == 0

    def test_coalesced_batch_fails_only_the_offender(
        self, relations, monkeypatch
    ):
        calls = []
        real = FpgaPartitioner.partition_many

        def spy(self, columns, *args, **kwargs):
            calls.append(len(columns))
            return real(self, columns, *args, **kwargs)

        monkeypatch.setattr(FpgaPartitioner, "partition_many", spy)
        batch = relations[:3] + [OVERFLOWING] + relations[3:7]
        with PartitionService() as service:
            gate = _park_dispatcher(service, relations[0])
            tickets = [
                service.submit(PartitionRequest(relation=keys, config=PAD))
                for keys in batch
            ]
            gate.set()
            responses = [ticket.result(timeout=30) for ticket in tickets]
        # one coalesced call, then the cold path: entry by entry
        assert calls == [8] + [1] * 8
        reference = FpgaPartitioner(PAD)
        for keys, response in zip(batch, responses):
            if keys is OVERFLOWING:
                assert response.status is RequestStatus.FAILED
                assert response.error_type == "PartitionOverflowError"
            else:
                assert response.status is RequestStatus.OK
                assert response.backend == "fpga" and not response.degraded
                assert_outputs_equal(
                    response.output, reference.partition(keys)
                )
        counters = _settled_counters(service)
        assert (counters["failed"], counters["completed"]) == (1, 7)

    @pytest.mark.parametrize(
        "case", ["many", "split", "isolated", "spill", "fused", "staged"]
    )
    def test_nothing_escapes_an_executor(
        self, case, relations, monkeypatch, tmp_path
    ):
        import repro.optimize.isolation
        import repro.plan
        from repro.service.service import PlanRequest
        from repro.storage import SpillPartitioner

        target, kwargs = {
            "many": ((FpgaPartitioner, "partition_many"), {}),
            "split": (
                (FpgaPartitioner, "partition"), {"split_tuples": 100}
            ),
            "isolated": (
                (repro.optimize.isolation, "partition_isolated"),
                {"optimizer": _FixedOptimizer("fpga", "isolate", (7,))},
            ),
            "spill": (
                (SpillPartitioner, "run"),
                {"spill_tuples": 100, "spill_dir": tmp_path},
            ),
            "fused": ((repro.plan, "execute_plan"), {}),
            "staged": ((repro.plan, "execute_plan"), {}),
        }[case]
        seen = []
        called = threading.Event()
        with PartitionService(**kwargs) as service:
            with monkeypatch.context() as broken:
                broken.setattr(*target, _boom)
                if case in ("fused", "staged"):
                    ticket = service.submit_plan(
                        PlanRequest(plan=_join_plan(), fused=case == "fused")
                    )
                else:
                    ticket = service.submit(
                        PartitionRequest(relation=relations[-1])
                    )
                ticket.add_done_callback(
                    lambda response: (seen.append(response), called.set())
                )
                response = ticket.result(timeout=30)
                assert called.wait(30)
            assert service._dispatcher.is_alive()
            after = service.partition(relations[0], timeout=30)
        assert response.status is RequestStatus.FAILED
        assert response.error_type == "RuntimeError"
        assert response.error == "RuntimeError: boom"
        assert seen == [response]
        assert after.status is RequestStatus.OK
        assert_outputs_equal(
            after.output,
            FpgaPartitioner(PartitionerConfig()).partition(relations[0]),
        )
        counters = _settled_counters(service)
        assert (counters["failed"], counters["completed"]) == (1, 1)
        assert counters["dispatcher_errors"] == 0
        if after.spill is not None:
            after.spill.cleanup()
        assert list(tmp_path.iterdir()) == []  # the failed run left nothing

    def test_last_resort_guard_fails_the_batch_and_keeps_looping(
        self, relations
    ):
        # not an executor's error but a hook of the resolver itself
        optimizer = _FixedOptimizer()
        optimizer.fail_observe = 1
        with PartitionService(optimizer=optimizer) as service:
            failed = service.partition(relations[0], timeout=30)
            assert service._dispatcher.is_alive()
            after = service.partition(relations[1], timeout=30)
        assert failed.status is RequestStatus.FAILED
        assert failed.error == "RuntimeError: observe hook broke"
        assert after.status is RequestStatus.OK
        assert optimizer.observed == ["fpga"]
        counters = _settled_counters(service)
        assert (counters["failed"], counters["completed"]) == (1, 1)
        assert counters["dispatcher_errors"] == 1


class TestOneResolver:
    """Whichever executor ran, the response, the root span and the
    accounting come out of the same resolver and look the same."""

    @pytest.mark.parametrize(
        "case, backend, attempts, degraded, reason",
        [
            ("fpga", "fpga", 1, False, None),
            ("cpu-degraded", "cpu", 0, True, "breaker-open"),
            ("cpu-routed", "cpu", 0, False, "optimizer-routed"),
            ("split", "fpga", 1, False, None),
            ("spill", "spill", 1, False, None),
            ("plan", "fused", 1, False, None),
            ("plan-degraded", "staged", 2, True, "RuntimeError: boom"),
        ],
    )
    def test_shared_fields(
        self, case, backend, attempts, degraded, reason,
        relations, monkeypatch, tmp_path,
    ):
        import repro.plan
        from repro.analysis.verify import outputs_identical
        from repro.obs import Tracer

        kwargs = {}
        if case == "cpu-degraded":
            breaker = CircuitBreaker(failure_threshold=1, cooldown_s=60.0)
            breaker.record_failure()
            kwargs["policy"] = DegradationPolicy(breaker=breaker)
        elif case == "cpu-routed":
            kwargs["optimizer"] = _FixedOptimizer("cpu")
        elif case == "split":
            kwargs["split_tuples"] = 100
        elif case == "spill":
            kwargs.update(spill_tuples=100, spill_dir=tmp_path)
        elif case == "plan-degraded":
            real = repro.plan.execute_plan
            monkeypatch.setattr(
                repro.plan, "execute_plan",
                lambda plan, fused=True, **kw: (
                    _boom() if fused else real(plan, fused=False, **kw)
                ),
            )
        tracer = Tracer()
        with PartitionService(tracer=tracer, **kwargs) as service:
            if case.startswith("plan"):
                response = service.submit_plan(_join_plan()).result(timeout=60)
            else:
                response = service.partition(relations[0], timeout=60)
        assert response.status is RequestStatus.OK, response.error
        assert response.backend == backend
        assert response.attempts == attempts
        assert response.degraded is degraded
        assert response.degrade_reason == reason
        assert response.batch_size == 1
        assert response.error is None and response.error_type is None
        assert response.execute_s > 0
        assert (
            response.queue_wait_s + response.execute_s
            <= response.total_s + 1e-9
        )
        if case.startswith("plan"):
            assert response.result is not None and response.output is None
        else:
            # contents, not line accounting: the CPU writes no dummy slots
            assert outputs_identical(
                response.output,
                FpgaPartitioner(PartitionerConfig()).partition(relations[0]),
                check_accounting=False,
            )
        assert (response.spill is not None) == (case == "spill")
        spans = tracer.export()
        (root,) = [s for s in spans if s.name == "request"]
        assert root.attributes["status"] == "ok"
        assert root.attributes["backend"] == backend
        assert root.attributes["batch_size"] == 1
        (execute,) = [s for s in spans if s.name == "execute"]
        assert execute.attributes["backend"] == backend
        assert execute.attributes["attempts"] == attempts
        latency = service.metrics.to_dict()["latency"]
        assert latency["total"]["count"] == 1
        assert latency["execute"]["count"] == 1
        counters = _settled_counters(service)
        assert counters["completed"] == counters["batches"] == 1
        assert counters["degraded"] == int(degraded)
        if response.spill is not None:
            response.spill.cleanup()

    def test_every_executed_batch_is_counted_once(
        self, relations, tmp_path
    ):
        # spill and plan batches used to bypass observe_batch and the
        # drain-rate estimate behind the retry_after hint
        big = np.concatenate(relations)
        config = PartitionerConfig(num_partitions=32)
        with PartitionService(
            spill_tuples=big.shape[0], spill_dir=tmp_path
        ) as service:
            rates = []
            service.queue.note_drain_rate = rates.append
            spilled = service.partition(big, config=config, timeout=60)
            planned = service.submit_plan(_join_plan()).result(timeout=60)
            gate = _park_dispatcher(service, relations[0])
            pair = [
                service.submit(PartitionRequest(relation=keys, config=config))
                for keys in relations[:2]
            ]
            gate.set()
            pair = [ticket.result(timeout=30) for ticket in pair]
        assert spilled.backend == "spill" and planned.backend == "fused"
        assert [r.batch_size for r in pair] == [2, 2]
        spilled.spill.cleanup()
        counters = _settled_counters(service)
        assert counters["batches"] == 3
        assert counters["completed"] == 4
        assert counters["coalesced_requests"] == 2
        assert service.metrics.mean_batch_size() == pytest.approx(4 / 3)
        # and each fed the drain-rate estimate behind retry_after
        assert len(rates) == 3 and all(rate > 0 for rate in rates)


class TestHalfOpenSingleProbe:
    def _half_open_breaker(self, clock) -> CircuitBreaker:
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=clock
        )
        breaker.record_failure()
        clock.advance(1.5)
        assert breaker.state == CircuitBreaker.HALF_OPEN
        return breaker

    def test_half_open_admits_exactly_one_caller(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        assert breaker.allow()  # the probe
        # the bug: every further caller in the window was admitted too
        assert not breaker.allow()
        assert not breaker.allow()
        breaker.record_success()
        assert breaker.state == CircuitBreaker.CLOSED
        assert breaker.allow()

    def test_half_open_single_probe_under_contention(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        admitted = []
        start = threading.Barrier(8)

        def worker():
            start.wait()
            if breaker.allow():
                admitted.append(threading.current_thread().name)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(admitted) == 1

    def test_failed_probe_reopens_with_fresh_probe(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        assert breaker.allow()
        breaker.record_failure()  # probe failed -> re-open
        assert breaker.state == CircuitBreaker.OPEN
        clock.advance(1.5)
        # the new half-open window gets its own single probe
        assert breaker.allow()
        assert not breaker.allow()

    def test_release_probe_hands_back_the_claim(self):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        assert breaker.allow()
        breaker.release_probe()
        assert breaker.allow()  # claim returned, next caller may probe

    def test_policy_refusal_does_not_wedge_half_open(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=100, burst_tuples=100, clock=clock
        )
        breaker = CircuitBreaker(
            failure_threshold=1, cooldown_s=1.0, clock=clock
        )
        policy = DegradationPolicy(saturation=bucket, breaker=breaker)
        policy.record_outcome(False)
        clock.advance(1.5)
        # allow() claims the probe but saturation refuses the work; the
        # claim must be released or the breaker stays wedged half-open
        assert policy.admit_fpga(1000) == "oversized"
        assert policy.admit_fpga(50) is None

    def test_request_error_on_the_probe_call_hands_the_probe_back(
        self, relations
    ):
        clock = FakeClock()
        breaker = self._half_open_breaker(clock)
        with PartitionService(
            policy=DegradationPolicy(breaker=breaker)
        ) as service:
            failed = service.partition(OVERFLOWING, config=PAD, timeout=30)
            # the request's error is no verdict on the backend: still
            # half-open, and the claim went back with release_probe()
            assert breaker.state == CircuitBreaker.HALF_OPEN
            served = service.partition(relations[0], config=PAD, timeout=30)
        assert failed.status is RequestStatus.FAILED
        assert failed.error_type == "PartitionOverflowError"
        # the next caller got the probe (not "breaker-open" -> cpu)
        assert served.status is RequestStatus.OK
        assert served.backend == "fpga" and not served.degraded
        assert breaker.state == CircuitBreaker.CLOSED


class TestTokenBucketValidation:
    def test_explicit_zero_burst_raises(self):
        # the bug: burst_tuples=0 was falsy and silently became `rate`
        with pytest.raises(ReproError):
            TokenBucket(tuples_per_second=100, burst_tuples=0)

    def test_negative_burst_raises(self):
        with pytest.raises(ReproError):
            TokenBucket(tuples_per_second=100, burst_tuples=-5)

    def test_omitted_burst_still_defaults_to_rate(self):
        assert TokenBucket(tuples_per_second=250).burst == 250.0

    def test_oversized_is_distinct_from_saturated(self):
        clock = FakeClock()
        bucket = TokenBucket(
            tuples_per_second=100, burst_tuples=100, clock=clock
        )
        policy = DegradationPolicy(saturation=bucket)
        # larger than burst: can never be admitted however long we wait
        assert policy.admit_fpga(101) == "oversized"
        # within burst: admitted now, saturated on the immediate retry
        assert policy.admit_fpga(100) is None
        assert policy.admit_fpga(100) == "saturated"
        clock.advance(10.0)
        assert policy.admit_fpga(100) is None  # refilled
        assert policy.admit_fpga(101) == "oversized"  # still never


class TestQuantileEdges:
    def test_q0_returns_lowest_occupied_bucket(self):
        hist = LatencyHistogram()
        hist.record(0.008)  # ~8 ms -> the 8192 us bucket
        # the bug: q=0 answered 1 us regardless of where the data sat
        assert hist.quantile_seconds(0.0) >= 0.004
        assert hist.quantile_seconds(0.0) <= 0.008192

    def test_overflow_bucket_clamps_to_max_seconds(self):
        hist = LatencyHistogram()
        hist.record(120.0)  # beyond the ~33.6 s bucket ladder
        # the bug: the open-ended bucket answered its fixed ~67 s bound
        assert hist.quantile_seconds(0.5) == pytest.approx(120.0)
        assert hist.quantile_seconds(1.0) == pytest.approx(120.0)

    def test_bounds_never_exceed_observed_max(self):
        hist = LatencyHistogram()
        hist.record(0.003)  # bucket bound 4096 us > the observation
        assert hist.quantile_seconds(0.99) == pytest.approx(0.003)

    def test_empty_histogram_and_validation(self):
        hist = LatencyHistogram()
        assert hist.quantile_seconds(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile_seconds(-0.1)
        with pytest.raises(ValueError):
            hist.quantile_seconds(1.1)

    def test_quantiles_monotone_in_q(self):
        hist = LatencyHistogram()
        for value in (0.0001, 0.001, 0.01, 0.1, 1.0):
            hist.record(value)
        qs = [hist.quantile_seconds(q) for q in (0.0, 0.25, 0.5, 0.95, 1.0)]
        assert qs == sorted(qs)
        assert qs[-1] <= hist.max_seconds


def _doubling_loop_histogram(values):
    """The bucket search ``LatencyHistogram.record`` used to run: double
    a 1 µs bound until it covers the observation."""
    buckets, total, top = [0] * len(LatencyHistogram().buckets), 0.0, 0.0
    for seconds in values:
        micros = max(0.0, seconds) * 1e6
        index, bound = 0, 1.0
        while micros > bound and index < len(buckets) - 1:
            bound *= 2.0
            index += 1
        buckets[index] += 1
        total += max(0.0, seconds)
        top = max(top, max(0.0, seconds))
    return buckets, len(values), total, top


_latencies = st.one_of(
    st.just(0.0),
    st.floats(min_value=-1e3, max_value=0.0),
    # exact powers of two in microseconds: the bucket edges
    st.integers(-30, 40).map(lambda e: 2.0**e / 1e6),
    st.floats(min_value=0.0, max_value=1e-300, allow_subnormal=True),
    st.floats(min_value=67.0),  # up to inf
    st.floats(min_value=0.0, max_value=100.0),
)


class TestLatencyBuckets:
    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_latencies, max_size=40))
    def test_frexp_bucket_equals_the_doubling_loop(self, values):
        one_by_one, batched = ServiceMetrics(), ServiceMetrics()
        for value in values:
            one_by_one.observe("total", value)
        batched.observe_many("total", values)
        expected = _doubling_loop_histogram(values)
        for metrics in (one_by_one, batched):
            hist = metrics.histograms["total"]
            assert (
                hist.buckets, hist.count, hist.total_seconds,
                hist.max_seconds,
            ) == expected


class TestOnePassPerBatch:
    """Per coalesced batch, whatever its size: one native call, one
    layout pass, one latency update per stage — in the style of
    ``tests/test_plan.py::TestNativeCrossings``."""

    @needs_native
    @pytest.mark.parametrize("size", [1, 3, 9])
    def test_counts_do_not_grow_with_the_batch(
        self, size, relations, native_calls, monkeypatch
    ):
        layout_rows = []
        real_layouts = partitioner_module.batch_layouts

        def layouts(config, lane_matrix, *args, **kwargs):
            layout_rows.append(lane_matrix.shape[0])
            return real_layouts(config, lane_matrix, *args, **kwargs)

        observed = collections.Counter()
        real_observe_many = MetricsRegistry.observe_many

        def observe_many(self, stage, seconds):
            observed[stage] += 1
            return real_observe_many(self, stage, seconds)

        # record ids of bare key arrays are written by the batch kernel:
        # no request-sized arange anywhere on the way
        arange_lengths = []
        real_arange = np.arange

        def arange(*args, **kwargs):
            result = real_arange(*args, **kwargs)
            arange_lengths.append(result.shape[0])
            return result

        monkeypatch.setattr(partitioner_module, "batch_layouts", layouts)
        monkeypatch.setattr(MetricsRegistry, "observe_many", observe_many)
        config = PartitionerConfig(num_partitions=64)
        batch = relations[:size]
        with PartitionService() as service:
            gate = _park_dispatcher(service, relations[0])
            native_calls.clear()
            layout_rows.clear()
            observed.clear()
            monkeypatch.setattr(np, "arange", arange)
            tickets = [
                service.submit(PartitionRequest(relation=keys, config=config))
                for keys in batch
            ]
            gate.set()
            responses = [ticket.result(timeout=30) for ticket in tickets]
            monkeypatch.setattr(np, "arange", real_arange)
            calls = dict(native_calls)
            stages = dict(observed)
        assert [r.batch_size for r in responses] == [size] * size
        assert calls == {"partition_batch": 1}
        assert layout_rows == [size]
        assert stages == {"queue_wait": 1, "total": 1}
        sizes = {keys.shape[0] for keys in batch}
        assert not sizes & set(arange_lengths), arange_lengths
        reference = FpgaPartitioner(config)
        for keys, response in zip(batch, responses):
            assert response.status is RequestStatus.OK
            assert_outputs_equal(response.output, reference.partition(keys))
