"""Per-layer probes (traced runs only) and the metrics derived from spans.

A probe times calls into one layer's public functions from outside, on
the *same* arrays its workload's end-to-end path uses, inside a
benchmark-side span.  A layer's self time is then its span time minus
the span time of the layer below on identical input (``RULES``).
Nothing here is on an end-to-end path: a probe whose symbol is gone
(``stitch_output``, ``StreamAccounting``, ... are slated for deletion)
makes its metrics ``null`` with the reason, it does not fail the run.
"""

from __future__ import annotations

import asyncio
import collections
import os
import statistics
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Dict, Optional

import numpy as np

from harness import Reference, Trace, cpu_seconds, io_counters
from workloads import RESULT_TIMEOUT_S, THREADS

#: repetitions of a relation-sized probe call (one under ``--smoke``)
REPS = 3
#: a gateway frame starts with ``<BI``: u8 type + u32 payload length
FRAME_HEADER_BYTES = 5
#: open-loop diagnostic: fixed chunk rate per stream, about half of what
#: one server process sustains on the reference box
OPEN_LOOP_CHUNKS_PER_S = 250.0
OPEN_LOOP_CHUNKS = 384


def feeds(*metrics: str):
    """Name the metrics that go ``null`` if this probe cannot run."""

    def mark(function):
        function.feeds = metrics
        return function

    return mark


def timed(trace: Trace, name: str, reps: int, call: Callable[[], object],
          warm: bool = True, **attrs) -> None:
    """``reps`` spans called ``name`` around ``call``; a dict it returns
    becomes span attributes.  One unrecorded call first, so page faults
    and lazily built pools are not in the first sample."""
    if warm:
        call()
    for _ in range(reps):
        with trace.span(name, **attrs) as span:
            result = call()
            if isinstance(result, dict):
                span.set(**result)


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------

@feeds("machine.memcpy_gbps", "machine.triad_gbps", "kernels.native")
def machine(w, trace, reps):
    """The ceiling: NumPy copy and a = b + s*c over relation-sized buffers."""
    from repro import kernels

    n = w.scaled(1 << 22)  # x 8 B: as many bytes as a bulk relation
    b = np.ones(n, dtype=np.float64)
    c = np.full(n, 2.0)
    a = np.empty_like(b)
    timed(trace, "machine.memcpy", reps, lambda: np.copyto(a, b), bytes=2 * b.nbytes)

    def triad():
        np.multiply(c, 3.0, out=a)
        np.add(a, b, out=a)

    # two NumPy passes touch five arrays' worth of memory, not STREAM's three
    timed(trace, "machine.triad", reps, triad, bytes=5 * b.nbytes)
    with trace.span("kernels.backend", native=int(kernels.backend_name() == "native")):
        pass


# ----------------------------------------------------------------------
# bulk_uniform / bulk_zipf
# ----------------------------------------------------------------------

@feeds("kernels.hash_histogram_mtps", "kernels.hash_histogram_lanes_mtps",
       "kernels.stable_scatter_mtps", "kernels.swwc_scatter_mtps", "kernels.bytes_moved")
def bulk_kernels(w, trace, reps):
    from repro import kernels

    cfg, keys, pays = w.config, w.relation.keys, w.relation.payloads
    n, fan_out = len(keys), cfg.num_partitions
    timed(trace, "kernels.hash_histogram", reps,
          lambda: kernels.hash_histogram(keys, fan_out, cfg.uses_hash), tuples=n)
    timed(trace, "kernels.hash_histogram_lanes", reps,
          lambda: kernels.hash_histogram(keys, fan_out, cfg.uses_hash, lanes=cfg.num_lanes),
          tuples=n)
    parts, hist, _ = kernels.hash_histogram(keys, fan_out, cfg.uses_hash)
    base = np.zeros(fan_out, dtype=np.int64)
    np.cumsum(hist[:-1], out=base[1:])
    out_keys, out_pays = np.empty_like(keys), np.empty_like(pays)
    moved = (keys.nbytes  # histogram pass
             + keys.nbytes + pays.nbytes + parts.nbytes  # scatter reads
             + out_keys.nbytes + out_pays.nbytes)  # scatter writes
    timed(trace, "kernels.stable_scatter", reps,
          lambda: kernels.stable_scatter(keys, pays, parts, base, fan_out, out_keys, out_pays),
          tuples=n, bytes_moved=moved)
    timed(trace, "kernels.swwc_scatter", reps,
          lambda: kernels.swwc_scatter(keys, pays, parts, base, fan_out, 8, out_keys, out_pays),
          tuples=n)


@feeds("exec.partition_t1_mtps", "exec.partition_tn_mtps", "exec.scaling_ratio",
       "exec.morsels", "exec.frac_of_memcpy", "core.glue_s")
def bulk_exec(w, trace, reps):
    from repro.exec import ExecutionEngine

    cfg, keys, pays = w.config, w.relation.keys, w.relation.payloads
    for label, workers in (("t1", 1), ("tn", THREADS)):
        with ExecutionEngine(workers=workers, kind="thread") as engine:
            def once():
                with engine.begin_partition(
                    keys, pays, cfg.num_partitions, cfg.uses_hash, lanes=cfg.num_lanes
                ) as task:
                    task.scatter()
                    return {"morsels": task.stats.num_morsels}

            timed(trace, f"exec.partition_{label}", reps, once,
                  tuples=len(keys), workers=workers)


@feeds("core.partition_serial_mtps", "service.overhead_s", "storage.vs_inmem_ratio")
def core_serial(w, trace, reps):
    from repro import FpgaPartitioner

    policy = getattr(w, "on_overflow", "raise")
    with FpgaPartitioner(w.config) as partitioner:
        timed(trace, "core.partition_serial", reps,
              lambda: partitioner.partition(w.relation, on_overflow=policy),
              tuples=len(w.relation))


@feeds("cpu.swwc_partition_mtps")
def bulk_cpu(w, trace, reps):
    from repro import CpuPartitioner

    with CpuPartitioner.matching(w.config, threads=THREADS) as partitioner:
        timed(trace, "cpu.swwc_partition", reps,
              lambda: partitioner.partition(w.relation), tuples=len(w.relation))


def service_snapshot(trace, service) -> None:
    """The service's own counters, recorded where the work happened."""
    snap = service.snapshot()
    counters, latency = snap["counters"], snap["latency"]
    with trace.span(
        "service.snapshot",
        batches=counters["batches"],
        batch_size_mean=snap["mean_batch_size"],
        rejected=counters["rejected"],
        retries=counters["retries"],
        degraded=counters["degraded"],
        queue_wait_p50_ms=latency["queue_wait"]["p50_s"] * 1e3,
        execute_p50_ms=latency["execute"]["p50_s"] * 1e3,
    ):
        pass


SERVICE_COUNTERS = ("service.batches", "service.batch_size_mean", "service.rejected",
                    "service.retries", "service.degraded", "service.queue_wait_p50_ms",
                    "service.execute_p50_ms")


@feeds("service.partition_mtps", "service.overhead_s", "service.start_s",
       "cluster.overhead_s", *SERVICE_COUNTERS)
def bulk_service(w, trace, reps):
    from repro.service import PartitionService

    with trace.span("service.start"):
        service = PartitionService().start()
    try:
        timed(trace, "service.partition", reps,
              lambda: service.partition(
                  w.relation, config=w.config, on_overflow=w.on_overflow,
                  timeout=RESULT_TIMEOUT_S,
              ), tuples=len(w.relation))
        service_snapshot(trace, service)
    finally:
        service.stop()


@feeds("optimize.profile_mtps", "optimize.service_mtps", "optimize.isolated_keys")
def bulk_optimize(w, trace, reps):
    from repro.optimize import AdaptiveOptimizer
    from repro.service import PartitionService

    n = len(w.relation)
    optimizer = AdaptiveOptimizer(seed=w.seed)
    timed(trace, "optimize.profile", reps,
          lambda: {"isolated_keys": len(
              optimizer.decide(w.relation.keys, w.config, reuse=False).isolate_keys
          )}, tuples=n)
    with PartitionService(optimizer=AdaptiveOptimizer(seed=w.seed)) as service:
        timed(trace, "optimize.service_partition", reps,
              lambda: service.partition(
                  w.relation, config=w.config, on_overflow=w.on_overflow,
                  timeout=RESULT_TIMEOUT_S,
              ), tuples=n)


@feeds("cluster.shards1_mtps", "cluster.load_imbalance")
def bulk_cluster(w, trace, reps):
    from repro.cluster import ShardRouter

    with ShardRouter(1, seed=w.seed, storage_root=w.scratch.fresh("cluster1")) as router:
        timed(trace, "cluster.partition_shards1", reps,
              lambda: router.partition(
                  w.relation, config=w.config, on_overflow=w.on_overflow
              ), tuples=len(w.relation))
    # tuples each shard of the workload's own two-shard router served
    loads = [
        shard["shard"]["tuples"] for shard in w.router.snapshot()["shards"].values()
    ]
    with trace.span("cluster.snapshot",
                    load_imbalance=max(loads) / (sum(loads) / len(loads))):
        pass


# ----------------------------------------------------------------------
# stream_chunks
# ----------------------------------------------------------------------

@feeds("kernels.chunk_us", "core.chunk_partition_us", "service.tax_ratio",
       "gateway.encode_chunk_us", "gateway.decode_chunk_us", "gateway.accounting_us",
       "gateway.stitch_s")
def stream_chunk_costs(w, trace, reps):
    """What one chunk costs at each layer below the socket, and the
    client-side stitch of one whole stream."""
    from repro import FpgaPartitioner, kernels
    from repro.gateway import protocol
    from repro.gateway.chunking import StreamAccounting, stitch_output

    cfg, keys, step = w.config, w.relations[0], w.chunk_tuples
    fan_out = cfg.num_partitions
    chunks = [keys[low:low + step] for low in range(0, len(keys), step)]
    positions = [
        np.arange(index * step, index * step + len(chunk), dtype=np.uint32)
        for index, chunk in enumerate(chunks)
    ]
    out_keys, out_pays = np.empty(step, np.uint32), np.empty(step, np.uint32)
    for chunk, pays in zip(chunks, positions):
        with trace.span("kernels.chunk", tuples=len(chunk)):
            parts, hist, _ = kernels.hash_histogram(chunk, fan_out, cfg.uses_hash)
            base = np.zeros(fan_out, dtype=np.int64)
            np.cumsum(hist[:-1], out=base[1:])
            kernels.stable_scatter(chunk, pays, parts, base, fan_out, out_keys, out_pays)
    outputs, frames, decoded = [], [], []
    with FpgaPartitioner(cfg) as partitioner:
        for chunk, pays in zip(chunks, positions):
            with trace.span("core.chunk_partition", tuples=len(chunk)):
                outputs.append(partitioner.partition(chunk, pays))
    for seq, output in enumerate(outputs):
        with trace.span("gateway.encode_chunk", tuples=step):
            frames.append(protocol.encode_chunk(
                seq, output.counts, output.partition_keys, output.partition_payloads
            ))
    for frame in frames:
        body = frame[FRAME_HEADER_BYTES:]
        with trace.span("gateway.decode_chunk", tuples=step):
            decoded.append(protocol.decode_chunk(body, fan_out)[1:])
    accounting = StreamAccounting(cfg)
    for chunk in chunks:
        with trace.span("gateway.accounting", tuples=len(chunk)):
            accounting.observe(chunk)
    manifest = accounting.finalize()
    timed(trace, "gateway.stitch", reps, lambda: stitch_output(manifest, decoded),
          warm=False, chunks=len(decoded), tuples=len(keys))


@feeds("service.chunk_submit_us", "service.chunk_mtps", "service.tax_ratio",
       "gateway.socket_overhead_frac", "obs.service_traced_overhead_frac",
       *SERVICE_COUNTERS)
def stream_service(w, trace, reps):
    """The gateway's data plane minus the socket: the same chunks
    submitted to a ``PartitionService`` in-process, one client thread
    per stream, each keeping the credit window's depth in flight."""
    from repro.obs import Tracer
    from repro.service import PartitionRequest, PartitionService

    step = w.chunk_tuples
    per_stream = [
        [
            PartitionRequest(
                relation=keys[low:low + step],
                payloads=np.arange(low, min(low + step, len(keys)), dtype=np.uint32),
                config=w.config,
            )
            for low in range(0, len(keys), step)
        ]
        for keys in w.relations
    ]
    total = sum(len(keys) for keys in w.relations)

    def client(service, requests):
        pending = collections.deque()
        for request in requests:
            if len(pending) >= w.credits:
                pending.popleft().result(RESULT_TIMEOUT_S)
            pending.append(service.submit(request))
        while pending:
            pending.popleft().result(RESULT_TIMEOUT_S)

    def pipelined(service):
        with ThreadPoolExecutor(max_workers=len(per_stream)) as pool:
            list(pool.map(lambda requests: client(service, requests), per_stream))

    with PartitionService(max_queue_requests=2048) as service:
        for request in per_stream[0][:256]:
            with trace.span("service.chunk_submit", tuples=request.num_tuples):
                service.submit(request).result(RESULT_TIMEOUT_S)
        timed(trace, "service.chunk_stream", reps, lambda: pipelined(service), tuples=total)
        service_snapshot(trace, service)
    with PartitionService(max_queue_requests=2048, tracer=Tracer()) as service:
        timed(trace, "service.chunk_stream_traced", reps, lambda: pipelined(service),
              tuples=total)


@feeds("gateway.open_p50_ms", "gateway.open_p99_ms", "gateway.open_late_p99_ms")
def stream_open_loop(w, trace, reps):
    """Fixed-rate arrivals, each chunk timed from when it was due: the
    send returns once the credit window admits the chunk, so a server
    that falls behind shows as latency, a slow generator as lateness."""
    from repro.gateway import GatewayClient
    from repro.workloads import poisson_arrivals

    step, count = w.chunk_tuples, min(w.chunks, OPEN_LOOP_CHUNKS)
    port = w.servers[0][1]

    async def drive(index: int):
        keys = w.relations[index]
        due = poisson_arrivals(count, OPEN_LOOP_CHUNKS_PER_S, seed=w.seed + index)
        client = await GatewayClient.connect("127.0.0.1", port)
        try:
            stream = await client.open_stream(w.config)
            loop = asyncio.get_running_loop()
            epoch = loop.time()
            for position, when in enumerate(due):
                delay = epoch + when - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                late = loop.time() - epoch - when
                with trace.span("gateway.open_send", tuples=step) as span:
                    await stream.send(keys[position * step:(position + 1) * step])
                    span.set(late_ms=late * 1e3,
                             latency_ms=(loop.time() - epoch - when) * 1e3)
            await stream.finish()
        finally:
            await client.close()

    async def both():
        await asyncio.gather(*[drive(index) for index in range(w.streams)])

    asyncio.run(both())


# ----------------------------------------------------------------------
# service_burst
# ----------------------------------------------------------------------

@feeds("core.partition_many_mtps", "service.naive_rps", "service.batching_speedup",
       *SERVICE_COUNTERS)
def burst_layers(w, trace, reps):
    from repro import FpgaPartitioner
    from repro.service import PartitionService

    for config in w.configs:
        group = [r.relation for r in w.pool if r.config == config]
        with FpgaPartitioner(config) as partitioner:
            timed(trace, "core.partition_many", reps,
                  lambda: partitioner.partition_many(group),
                  tuples=sum(len(keys) for keys in group))
    count = max(1, w.requests_per_rep // 4)
    with PartitionService(
        max_queue_requests=4 * w.window, max_batch_requests=1
    ) as naive:
        timed(trace, "service.burst_naive", reps,
              lambda: w.drive(naive, count, w.window), requests=count)
    service_snapshot(trace, w.service)


# ----------------------------------------------------------------------
# spill_ooc
# ----------------------------------------------------------------------

@feeds("storage.cpu_s_per_mtuple", "storage.write_syscalls", "storage.fsync_calls",
       "storage.fsync_s", "storage.readback_mtps", "storage.verify_s",
       "storage.resume_s", "storage.peak_traced_mib")
def spill_storage(w, trace, reps):
    from repro.service import BackendFault, FaultInjector
    from repro.storage import PartitionSpill, SpillPartitioner

    n = len(w.relation)
    # reopen the end-to-end lane's last run and read every partition back
    timed(trace, "storage.readback", reps,
          lambda: Reference.of(PartitionSpill.open(w.kept.path).to_output()), tuples=n)

    def spiller(**kwargs):
        return SpillPartitioner(w.config, max_bytes_in_memory=w.memory_bytes, **kwargs)

    # one run with os.fsync wrapped, CPU and write syscalls accounted
    real_fsync = os.fsync

    def spanned_fsync(fd):
        with trace.span("storage.fsync"):
            real_fsync(fd)

    os.fsync = spanned_fsync
    try:
        with spiller() as spill:
            before, cpu = io_counters(), cpu_seconds()
            with trace.span("storage.run_accounted", tuples=n) as span:
                handle = spill.run(w.store, w.scratch.fresh("run"))
                after = io_counters()
                span.set(cpu_s=cpu_seconds() - cpu,
                         write_syscalls=after["syscw"] - before["syscw"])
    finally:
        os.fsync = real_fsync
    with trace.span("storage.verify", tuples=n):
        handle.verify()
    handle.cleanup()

    # kill at the middle checkpoint, then resume
    injector = FaultInjector()
    injector.fail_at(max(1, w.store.num_chunks // 2))
    run_dir = w.scratch.fresh("run")
    with spiller(fault_injector=injector) as spill:
        try:
            spill.run(w.store, run_dir)
        except BackendFault:
            pass
    with spiller() as spill:
        with trace.span("storage.resume", tuples=n):
            handle = spill.resume(run_dir)
    handle.cleanup()

    # memory in a pass of its own: tracemalloc slows what it measures
    tracemalloc.start()
    try:
        with spiller() as spill:
            with trace.span("storage.run_tracemalloc", tuples=n) as span:
                handle = spill.run(w.store, w.scratch.fresh("run"))
                span.set(peak_mib=tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()
    handle.cleanup()


# ----------------------------------------------------------------------
# join_groupby
# ----------------------------------------------------------------------

@feeds("plan.compile_ms", "plan.staged_s", "plan.fused_speedup", "plan.peak_traced_mib")
def join_plan(w, trace, reps):
    from repro.plan import compile_plan, execute_plan

    timed(trace, "plan.compile", reps, lambda: compile_plan(w.plan))
    timed(trace, "plan.execute_staged", max(1, reps - 1),
          lambda: execute_plan(w.plan, fused=False), warm=False, tuples=w.tuples)
    tracemalloc.start()
    try:
        with trace.span("plan.execute_tracemalloc", tuples=w.tuples) as span:
            execute_plan(w.plan, fused=True)
            span.set(peak_mib=tracemalloc.get_traced_memory()[1] / 2**20)
    finally:
        tracemalloc.stop()


PROBES = {
    "bulk_uniform": (bulk_kernels, bulk_exec, core_serial, bulk_cpu, bulk_service,
                     bulk_optimize, bulk_cluster),
    "stream_chunks": (stream_chunk_costs, stream_service, stream_open_loop),
    "service_burst": (burst_layers,),
    "spill_ooc": (core_serial, spill_storage),
    "join_groupby": (join_plan,),
}
PROBES["bulk_zipf"] = PROBES["bulk_uniform"]


def probe(workload, trace: Trace) -> Dict[str, str]:
    """Run this workload's probes; returns metric -> why it is null."""
    reasons: Dict[str, str] = {}
    reps = 1 if workload.smoke else REPS
    for function in (machine,) + PROBES[workload.name]:
        try:
            with trace.span("bench.probe", probe=function.__name__):
                function(workload, trace, reps)
        except (ImportError, AttributeError) as error:
            for metric in function.feeds:
                reasons[metric] = f"{function.__name__}: {type(error).__name__}: {error}"
    return reasons


# ----------------------------------------------------------------------
# Spans -> per-layer metrics
# ----------------------------------------------------------------------

def _scale(value: Optional[float], factor: float) -> Optional[float]:
    return None if value is None else value * factor


def _minus(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or b is None else a - b


def _over(a: Optional[float], b: Optional[float]) -> Optional[float]:
    return None if a is None or b is None or b == 0 else a / b


def _shortfall(a: Optional[float], b: Optional[float]) -> Optional[float]:
    """1 - a/b: the share of ``b``'s rate that ``a`` loses."""
    ratio = _over(a, b)
    return None if ratio is None else 1.0 - ratio


def _median(values) -> Optional[float]:
    return float(statistics.median(values)) if values else None


def _total(values) -> Optional[float]:
    return float(sum(values)) if values else None


def _percentile(values, pct: float) -> Optional[float]:
    return float(np.percentile(np.asarray(values), pct)) if values else None


def _mtps(t: Trace, name: str, **match) -> Optional[float]:
    return _scale(t.rate(name, **match), 1e-6)


def _us(t: Trace, name: str) -> Optional[float]:
    return _scale(t.median_s(name), 1e6)


def _operator_s(t: Trace, *operators: str) -> Optional[float]:
    """Median busy time of fused-plan operators, from the public
    ``QueryResult.operator_stats`` recorded on each execute span."""
    busy = [
        sum(stats[op]["busy_s"] for op in operators if op in stats)
        for stats in t.attr("plan.execute_fused", "stats")
    ]
    return _median(busy)


def _snapshot(key: str):
    return lambda t: _total(t.attr("service.snapshot", key)[-1:])


#: per-layer metric -> how to read it off the trace (``None`` = no span
#: of this run feeds it).  Units and directions are in BENCHMARK.json.
RULES: Dict[str, Callable[[Trace], Optional[float]]] = {
    # the ceiling: moves with nothing in the repo
    "machine.memcpy_gbps": lambda t: _scale(t.rate("machine.memcpy", per="bytes"), 1e-9),
    "machine.triad_gbps": lambda t: _scale(t.rate("machine.triad", per="bytes"), 1e-9),
    # kernels
    "kernels.native": lambda t: t.median_attr("kernels.backend", "native"),
    "kernels.hash_histogram_mtps": lambda t: _mtps(t, "kernels.hash_histogram"),
    "kernels.hash_histogram_lanes_mtps": lambda t: _mtps(t, "kernels.hash_histogram_lanes"),
    "kernels.stable_scatter_mtps": lambda t: _mtps(t, "kernels.stable_scatter"),
    "kernels.swwc_scatter_mtps": lambda t: _mtps(t, "kernels.swwc_scatter"),
    "kernels.bytes_moved": lambda t: t.median_attr("kernels.stable_scatter", "bytes_moved"),
    "kernels.chunk_us": lambda t: _us(t, "kernels.chunk"),
    # exec
    "exec.partition_t1_mtps": lambda t: _mtps(t, "exec.partition_t1"),
    "exec.partition_tn_mtps": lambda t: _mtps(t, "exec.partition_tn"),
    "exec.scaling_ratio": lambda t: _over(
        t.rate("exec.partition_tn"), t.rate("exec.partition_t1")),
    "exec.morsels": lambda t: t.median_attr("exec.partition_tn", "morsels"),
    # 16 B per tuple: 8 read + 8 written, against the copy's bytes/s
    "exec.frac_of_memcpy": lambda t: _over(
        _scale(t.rate("exec.partition_tn"), 16.0), t.rate("machine.memcpy", per="bytes")),
    # core
    "core.partition_serial_mtps": lambda t: _mtps(t, "core.partition_serial"),
    "core.partition_threads_mtps": lambda t: _mtps(t, "core.partition_threads"),
    "core.glue_s": lambda t: _minus(
        t.median_s("core.partition_threads"), t.median_s("exec.partition_tn")),
    "core.partition_many_mtps": lambda t: _mtps(t, "core.partition_many"),
    "core.chunk_partition_us": lambda t: _us(t, "core.chunk_partition"),
    "core.overflow_fallbacks": lambda t: t.median_attr("core.partition_threads", "fallback"),
    "core.padding_frac": lambda t: t.median_attr("core.partition_threads", "padding_frac"),
    "core.read_write_ratio": lambda t: t.median_attr(
        "core.partition_threads", "read_write_ratio"),
    # cpu
    "cpu.swwc_partition_mtps": lambda t: _mtps(t, "cpu.swwc_partition"),
    # service
    "service.partition_mtps": lambda t: _mtps(t, "service.partition"),
    "service.overhead_s": lambda t: _minus(
        t.median_s("service.partition"), t.median_s("core.partition_serial")),
    "service.start_s": lambda t: t.median_s("service.start"),
    "service.chunk_submit_us": lambda t: _us(t, "service.chunk_submit"),
    "service.chunk_mtps": lambda t: _mtps(t, "service.chunk_stream"),
    "service.tax_ratio": lambda t: _over(
        t.median_s("service.chunk_submit"), t.median_s("core.chunk_partition")),
    "service.request_p50_us": lambda t: _us(t, "service.request"),
    "service.request_p99_us": lambda t: _scale(_percentile(
        [s.seconds for s in t.named("service.request")], 99), 1e6),
    "service.burst_rps": lambda t: t.rate("service.burst", per="requests"),
    "service.naive_rps": lambda t: t.rate("service.burst_naive", per="requests"),
    "service.batching_speedup": lambda t: _over(
        t.rate("service.burst", per="requests"), t.rate("service.burst_naive", per="requests")),
    "service.batches": _snapshot("batches"),
    "service.batch_size_mean": _snapshot("batch_size_mean"),
    "service.rejected": _snapshot("rejected"),
    "service.retries": _snapshot("retries"),
    "service.degraded": _snapshot("degraded"),
    "service.queue_wait_p50_ms": _snapshot("queue_wait_p50_ms"),
    "service.execute_p50_ms": _snapshot("execute_p50_ms"),
    # optimize
    "optimize.profile_mtps": lambda t: _mtps(t, "optimize.profile"),
    "optimize.service_mtps": lambda t: _mtps(t, "optimize.service_partition"),
    "optimize.isolated_keys": lambda t: t.median_attr("optimize.profile", "isolated_keys"),
    # cluster
    "cluster.partition_mtps": lambda t: _mtps(t, "cluster.partition"),
    "cluster.overhead_s": lambda t: _minus(
        t.median_s("cluster.partition"), t.median_s("service.partition")),
    "cluster.shards1_mtps": lambda t: _mtps(t, "cluster.partition_shards1"),
    "cluster.load_imbalance": lambda t: t.median_attr("cluster.snapshot", "load_imbalance"),
    "cluster.replicated_partitions": lambda t: t.median_attr("cluster.partition", "replicated"),
    "cluster.failovers": lambda t: _total(t.attr("cluster.partition", "failovers")),
    "cluster.handoffs": lambda t: _total(t.attr("cluster.partition", "handoffs")),
    # storage
    "storage.ingest_mtps": lambda t: _mtps(t, "storage.ingest"),
    "storage.run_s": lambda t: t.median_s("storage.run"),
    "storage.cpu_s_per_mtuple": lambda t: _over(
        t.median_attr("storage.run_accounted", "cpu_s"),
        _scale(t.median_attr("storage.run_accounted", "tuples"), 1e-6)),
    "storage.bytes_written": lambda t: t.median_attr("storage.run", "bytes_written"),
    "storage.write_amp": lambda t: _over(
        t.median_attr("storage.run", "bytes_written"),
        _scale(t.median_attr("storage.run", "tuples"), 8.0)),
    "storage.write_syscalls": lambda t: t.median_attr("storage.run_accounted", "write_syscalls"),
    "storage.fsync_calls": lambda t: _total([1 for _ in t.named("storage.fsync")]),
    "storage.fsync_s": lambda t: _total([s.seconds for s in t.named("storage.fsync")]),
    "storage.readback_mtps": lambda t: _mtps(t, "storage.readback"),
    "storage.verify_s": lambda t: t.median_s("storage.verify"),
    "storage.resume_s": lambda t: t.median_s("storage.resume"),
    "storage.vs_inmem_ratio": lambda t: _over(
        t.rate("storage.run"), t.rate("core.partition_serial")),
    "storage.peak_traced_mib": lambda t: t.median_attr("storage.run_tracemalloc", "peak_mib"),
    # plan / join / ops
    "plan.compile_ms": lambda t: _scale(t.median_s("plan.compile"), 1e3),
    "plan.fused_s": lambda t: t.median_s("plan.execute_fused"),
    "plan.staged_s": lambda t: t.median_s("plan.execute_staged"),
    "plan.fused_speedup": lambda t: _over(
        t.median_s("plan.execute_staged"), t.median_s("plan.execute_fused")),
    "plan.partition_phase_s": lambda t: _operator_s(
        t, "partition.histogram", "partition.scatter"),
    "join.build_probe_s": lambda t: _operator_s(t, "join.build_probe"),
    "ops.groupby_s": lambda t: _operator_s(t, "aggregate.reduce"),
    "plan.matches": lambda t: t.median_attr("plan.execute_fused", "matches"),
    "plan.groups": lambda t: t.median_attr("plan.execute_fused", "groups"),
    "plan.declined": lambda t: _total(t.attr("plan.execute_fused", "declined")),
    "plan.peak_traced_mib": lambda t: t.median_attr("plan.execute_tracemalloc", "peak_mib"),
    # gateway
    "gateway.stream_mtps": lambda t: _mtps(t, "gateway.streams"),
    "gateway.send_p50_us": lambda t: _us(t, "gateway.send"),
    "gateway.encode_chunk_us": lambda t: _us(t, "gateway.encode_chunk"),
    "gateway.decode_chunk_us": lambda t: _us(t, "gateway.decode_chunk"),
    "gateway.accounting_us": lambda t: _us(t, "gateway.accounting"),
    "gateway.stitch_s": lambda t: t.median_s("gateway.stitch"),
    "gateway.finish_s": lambda t: t.median_s("gateway.finish", window=4),
    "gateway.socket_overhead_frac": lambda t: _shortfall(
        t.rate("gateway.streams"), t.rate("service.chunk_stream")),
    "gateway.credit_stalls": lambda t: _total(t.attr("gateway.finish", "stalls")),
    "gateway.server_start_s": lambda t: t.median_s("gateway.server_start"),
    "gateway.server_cpu_s": lambda t: t.median_attr("gateway.streams", "server_cpu_s"),
    "gateway.client_cpu_s": lambda t: t.median_attr("gateway.streams", "client_cpu_s"),
    "gateway.open_p50_ms": lambda t: _percentile(t.attr("gateway.open_send", "latency_ms"), 50),
    "gateway.open_p99_ms": lambda t: _percentile(t.attr("gateway.open_send", "latency_ms"), 99),
    "gateway.open_late_p99_ms": lambda t: _percentile(
        t.attr("gateway.open_send", "late_ms"), 99),
    # obs
    "obs.service_traced_overhead_frac": lambda t: _shortfall(
        t.rate("service.chunk_stream_traced"), t.rate("service.chunk_stream")),
    "obs.bench_trace_overhead_frac": lambda t: _shortfall(
        t.rate("bench.throughput_rep", traced=True),
        t.rate("bench.throughput_rep", traced=False)),
    # the cost side of the throughput lane: CPU of the workload process
    # and its server children, per repetition
    "bench.cpu_s_per_mtuple": lambda t: _median([
        span.attrs["cpu_s"] / (span.attrs["tuples"] / 1e6)
        for span in t.named("bench.throughput_rep")
    ]),
}


def derive(trace: Trace) -> Dict[str, Optional[float]]:
    """Every per-layer metric, from the spans alone."""
    return {name: rule(trace) for name, rule in RULES.items()}
