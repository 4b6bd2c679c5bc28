"""The six workloads' end-to-end paths.

Each path drives the stack through its top-level public entry points
only (``FpgaPartitioner``, ``ShardRouter``, ``PartitionService``,
``GatewayClient`` and the ``repro gateway serve`` CLI, ``RelationStore``
/ ``SpillPartitioner``, ``join_groupby_query`` / ``execute_plan``), on
inputs generated from the seed by ``repro.workloads.make_relation``.
Per-layer probes live in :mod:`layers`; they reach deeper and may
degrade, these may not.

Every workload has a *throughput lane* (tuples per second through its
path) and an *operation lane* (latency of the one operation a caller
of that path waits for); ``README.md`` says which is which and why.
"""

from __future__ import annotations

import asyncio
import collections
import os
import re
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro import (
    FpgaPartitioner,
    LayoutMode,
    OutputMode,
    PartitionerConfig,
    make_relation,
)
from repro.cluster import ShardRouter
from repro.gateway import GatewayClient
from repro.plan import execute_plan, join_groupby_query
from repro.service import PartitionRequest, PartitionService
from repro.storage import RelationStore, SpillPartitioner

from harness import (
    ROOT, Lane, Reference, Rep, Scratch, Trace, cpu_seconds, io_counters,
    tail_percentile,
)

#: engine threads: the load shape is sized for a 2-core shared box
THREADS = min(os.cpu_count() or 1, 4)
#: divisor applied to every input size by ``--smoke``
SMOKE_DIVISOR = 64
RESULT_TIMEOUT_S = 120.0
ZIPF = 1.05


class Workload:
    """Base: inputs from the seed, two lanes, teardown that reports leaks."""

    name = ""
    #: share of ``--seconds`` the throughput lane gets (the rest goes
    #: to the operation lane; 1.0 = the lanes are the same repetitions)
    throughput_share = 0.6

    def __init__(self, seed: int, smoke: bool, scratch: Scratch, trace: Trace):
        self.seed = seed
        self.smoke = smoke
        self.scratch = scratch
        self.trace = trace

    def scaled(self, full: int) -> int:
        return max(1, full // SMOKE_DIVISOR) if self.smoke else full

    def setup(self) -> None:
        raise NotImplementedError

    def prepare_oracle(self) -> None:
        raise NotImplementedError

    def throughput_rep(self) -> Rep:
        raise NotImplementedError

    def operation_rep(self) -> Rep:
        raise NotImplementedError

    def child_pids(self) -> Tuple[int, ...]:
        return ()

    def details(self, throughput: Lane, operation: Lane) -> Dict[str, Tuple[float, str]]:
        """Workload-specific end-to-end numbers, by the names ISSUE 11 uses."""
        return {}

    def teardown(self) -> List[str]:
        """Stop what setup started; returns hygiene violations."""
        return []


# ----------------------------------------------------------------------
# bulk_uniform / bulk_zipf
# ----------------------------------------------------------------------

class Bulk(Workload):
    """Whole relations through ``FpgaPartitioner`` (thread engine) and,
    as the operation, through ``ShardRouter(2)``."""

    tuples_full = 1 << 22
    fan_out = 8192
    distribution = "random"
    zipf = 0.0
    config = PartitionerConfig(num_partitions=fan_out)
    on_overflow = "raise"
    shards = 2

    def setup(self) -> None:
        self.relation = make_relation(
            self.scaled(self.tuples_full), self.distribution,
            seed=self.seed, zipf_factor=self.zipf,
        )
        self.partitioner = FpgaPartitioner(self.config, engine="thread", threads=THREADS)
        # the ring keeps its default seed: placement must not move with --seed
        self.router = ShardRouter(
            self.shards, storage_root=self.scratch.fresh("cluster")
        ).start()

    def prepare_oracle(self) -> None:
        self.reference = Reference.of(
            FpgaPartitioner(self.config).partition(
                self.relation, on_overflow=self.on_overflow
            )
        )

    def throughput_rep(self) -> Rep:
        n = len(self.relation)
        with self.trace.span("core.partition_threads", tuples=n) as span:
            output = self.partitioner.partition(
                self.relation, on_overflow=self.on_overflow
            )
            span.set(
                fallback=int(output.config.output_mode != self.config.output_mode),
                padding_frac=output.padding_fraction,
                read_write_ratio=output.read_write_ratio,
            )
        return Rep(n, 1, lambda: int(self.reference.divergence(output) is not None))

    def operation_rep(self) -> Rep:
        n = len(self.relation)
        with self.trace.span("cluster.partition", tuples=n) as span:
            response = self.router.partition(
                self.relation, config=self.config, on_overflow=self.on_overflow
            )
            span.set(
                replicated=response.replicated_partitions,
                failovers=response.failovers,
                handoffs=response.handoffs,
            )
        return Rep(n, 1, lambda: int(
            not response.ok
            or self.reference.divergence(response.output) is not None
        ))

    def details(self, throughput, operation):
        n = len(self.relation)
        cluster = [n / (ms / 1e3) / 1e6 for ms in operation.pooled_op_ms]
        return {
            "partition_mtps": (float(np.median(throughput.mtps)), "Mtuples/s"),
            "cluster_mtps": (float(np.median(cluster)), "Mtuples/s"),
        }

    def teardown(self):
        self.partitioner.close()
        self.router.stop()
        return []


class BulkUniform(Bulk):
    name = "bulk_uniform"


class BulkZipf(Bulk):
    name = "bulk_zipf"
    distribution = "zipf"
    zipf = ZIPF
    config = PartitionerConfig(
        num_partitions=Bulk.fan_out,
        output_mode=OutputMode.PAD,
        layout_mode=LayoutMode.VRID,
    )
    on_overflow = "hist"


# ----------------------------------------------------------------------
# stream_chunks
# ----------------------------------------------------------------------

class StreamChunks(Workload):
    """Long chunk streams through a gateway server in a child process."""

    name = "stream_chunks"
    chunk_tuples = 8192
    chunks_full = 1024
    streams = min(os.cpu_count() or 1, 2)
    credits = 4
    config = PartitionerConfig(num_partitions=64)

    def setup(self) -> None:
        self.chunks = self.scaled(self.chunks_full)
        self.relations = [
            make_relation(
                self.chunks * self.chunk_tuples, "random", seed=self.seed + index
            ).keys
            for index in range(self.streams)
        ]
        # the credit window is a server setting: one server per window
        self.servers = [self._serve(self.credits), self._serve(1)]

    def _serve(self, credits: int):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(self.scratch.path))
        with self.trace.span("gateway.server_start", credits=credits):
            process = subprocess.Popen(
                [sys.executable, "-m", "repro", "gateway", "serve", "--port", "0",
                 "--credits", str(credits), "--chunk-tuples", str(self.chunk_tuples),
                 "--queue", "2048"],
                stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            )
            banner = process.stdout.readline()
        match = re.search(r":(\d+) ", banner)
        if match is None:
            process.kill()
            process.wait()
            raise RuntimeError(f"gateway server did not start: {banner!r}")
        return process, int(match.group(1))

    def child_pids(self):
        return tuple(process.pid for process, _ in self.servers)

    def prepare_oracle(self) -> None:
        offline = FpgaPartitioner(self.config)
        self.references = [
            Reference.of(offline.partition(keys)) for keys in self.relations
        ]

    async def _stream(self, port: int, keys: np.ndarray, stamps: Optional[list] = None):
        step = self.chunk_tuples
        window = 1 if stamps is not None else self.credits
        client = await GatewayClient.connect("127.0.0.1", port)
        try:
            stream = await client.open_stream(self.config)
            for low in range(0, len(keys), step):
                chunk = keys[low:low + step]
                with self.trace.span("gateway.send", tuples=len(chunk)):
                    await stream.send(chunk)
                if stamps is not None:
                    stamps.append(time.perf_counter())
            with self.trace.span("gateway.finish", window=window) as span:
                output = await stream.finish()
                span.set(stalls=len(stream.stalls))
            return output
        finally:
            await client.close()

    def _check(self, outputs) -> int:
        return self.chunks * sum(
            reference.divergence(output) is not None
            for reference, output in zip(self.references, outputs)
        )

    def throughput_rep(self) -> Rep:
        port = self.servers[0][1]

        async def both():
            return await asyncio.gather(
                *[self._stream(port, keys) for keys in self.relations]
            )

        total = sum(len(keys) for keys in self.relations)
        with self.trace.span("gateway.streams", tuples=total, streams=self.streams) as span:
            client_cpu, both_cpu = cpu_seconds(), cpu_seconds(self.child_pids())
            outputs = asyncio.run(both())
            client_cpu = cpu_seconds() - client_cpu
            span.set(
                client_cpu_s=client_cpu,
                server_cpu_s=cpu_seconds(self.child_pids()) - both_cpu - client_cpu,
            )
        return Rep(total, self.chunks * self.streams, lambda: self._check(outputs))

    def operation_rep(self) -> Rep:
        # window 1: send N+1 cannot leave before chunk N came back, so
        # the gap between consecutive sends is the chunk's round trip
        stamps: List[float] = []
        keys = self.relations[0]
        with self.trace.span("gateway.stream_window1", tuples=len(keys)):
            output = asyncio.run(self._stream(self.servers[1][1], keys, stamps))
        gaps_ms = (np.diff(np.asarray(stamps)) * 1e3).tolist()
        return Rep(len(keys), self.chunks, lambda: self._check([output]), gaps_ms or [0.0])

    def details(self, throughput, operation):
        out = {
            "stream_mtps": (float(np.median(throughput.mtps)), "Mtuples/s"),
            "chunk_rtt_p50_ms": (float(np.median(operation.pooled_op_ms)), "ms"),
        }
        tail = tail_percentile(operation.pooled_op_ms)
        if tail is not None:
            out[f"chunk_rtt_p{tail[0]}_ms"] = (tail[1], "ms")
        return out

    def teardown(self):
        problems = []
        for process, port in self.servers:
            process.send_signal(signal.SIGTERM)
            try:
                process.communicate(timeout=30.0)
            except subprocess.TimeoutExpired:
                process.kill()
                process.communicate()
                problems.append(f"gateway :{port} missed its drain deadline")
                continue
            if process.returncode != 0:
                problems.append(f"gateway :{port} exited {process.returncode} on SIGTERM")
        return problems


# ----------------------------------------------------------------------
# service_burst
# ----------------------------------------------------------------------

class ServiceBurst(Workload):
    """Many small requests against ``PartitionService.submit``."""

    name = "service_burst"
    requests_full = 8192
    window = 512
    pool_size = 256
    size_range = (256, 4096)
    configs = (
        PartitionerConfig(num_partitions=64),
        PartitionerConfig(num_partitions=256),
    )

    def setup(self) -> None:
        self.requests_per_rep = self.scaled(self.requests_full)
        sizes = np.random.default_rng(self.seed).integers(
            self.size_range[0], self.size_range[1] + 1, size=self.pool_size
        )
        keys = make_relation(int(sizes.sum()), "random", seed=self.seed).keys
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.pool = [
            PartitionRequest(
                relation=keys[bounds[i]:bounds[i + 1]],
                config=self.configs[i % len(self.configs)],
            )
            for i in range(self.pool_size)
        ]
        self.service = PartitionService(max_queue_requests=4 * self.window).start()

    def prepare_oracle(self) -> None:
        offline = {config: FpgaPartitioner(config) for config in self.configs}
        self.references = [
            Reference.of(offline[request.config].partition(request.relation))
            for request in self.pool
        ]

    def _check(self, tickets) -> int:
        failed = 0
        for index, ticket in enumerate(tickets):
            response = ticket.result(0)
            reference = self.references[index % self.pool_size]
            failed += int(
                not response.ok
                or reference.divergence(response.output) is not None
            )
        return failed

    def drive(self, service, count: int, window: int):
        """Closed loop: one client keeps ``window`` requests outstanding."""
        tickets = []
        outstanding = collections.deque()
        tuples = 0
        for index in range(count):
            if len(outstanding) >= window:
                outstanding.popleft().result(RESULT_TIMEOUT_S)
            request = self.pool[index % self.pool_size]
            ticket = service.submit(request)
            outstanding.append(ticket)
            tickets.append(ticket)
            tuples += request.num_tuples
        while outstanding:
            outstanding.popleft().result(RESULT_TIMEOUT_S)
        return tickets, tuples

    def throughput_rep(self) -> Rep:
        count = self.requests_per_rep
        with self.trace.span("service.burst", requests=count) as span:
            tickets, tuples = self.drive(self.service, count, self.window)
            span.set(tuples=tuples)
        return Rep(tuples, count, lambda: self._check(tickets))

    def operation_rep(self) -> Rep:
        # one request at a time: the unloaded submit -> response latency
        count = min(self.requests_per_rep, 2 * self.pool_size)
        tickets, latencies, tuples = [], [], 0
        for index in range(count):
            request = self.pool[index % self.pool_size]
            started = time.perf_counter()
            with self.trace.span("service.request", tuples=request.num_tuples):
                ticket = self.service.submit(request)
                ticket.result(RESULT_TIMEOUT_S)
            latencies.append((time.perf_counter() - started) * 1e3)
            tickets.append(ticket)
            tuples += request.num_tuples
        return Rep(tuples, count, lambda: self._check(tickets), latencies)

    def details(self, throughput, operation):
        rps = [self.requests_per_rep / wall for wall in throughput.wall_s]
        out = {"burst_rps": (float(np.median(rps)), "requests/s")}
        tail = tail_percentile(operation.pooled_op_ms)
        if tail is not None:
            out[f"request_p{tail[0]}_ms"] = (tail[1], "ms")
        return out

    def teardown(self):
        self.service.stop()
        return []


# ----------------------------------------------------------------------
# spill_ooc
# ----------------------------------------------------------------------

class SpillOoc(Workload):
    """A stored relation partitioned out of core under a 4 MiB budget."""

    name = "spill_ooc"
    throughput_share = 1.0
    tuples_full = 1 << 22
    chunk_full = 1 << 17
    memory_full = 4 << 20
    config = PartitionerConfig(num_partitions=256)

    def setup(self) -> None:
        self.relation = make_relation(
            self.scaled(self.tuples_full), "random", seed=self.seed
        )
        self.chunk_tuples = self.scaled(self.chunk_full)
        self.memory_bytes = self.scaled(self.memory_full)
        with self.trace.span("storage.ingest", tuples=len(self.relation)):
            self.store = RelationStore.ingest(
                self.relation, self.scratch.fresh("store"),
                chunk_tuples=self.chunk_tuples,
            )
        self.write_amp: List[float] = []
        self.kept = None

    def prepare_oracle(self) -> None:
        self.reference = Reference.of(
            FpgaPartitioner(self.config).partition(self.relation)
        )

    def throughput_rep(self) -> Rep:
        n = len(self.relation)
        written = io_counters()["wchar"]
        with SpillPartitioner(
            self.config, max_bytes_in_memory=self.memory_bytes
        ) as spiller:
            with self.trace.span("storage.run", tuples=n) as span:
                handle = spiller.run(self.store, self.scratch.fresh("run"))
                written = io_counters()["wchar"] - written
                span.set(bytes_written=written)
        self.write_amp.append(written / (n * 8))

        def check() -> int:
            bad = self.reference.divergence(handle.to_output())
            if self.kept is not None:
                self.kept.cleanup()
            self.kept = handle  # the storage probes read the last run back
            return int(bad is not None)

        return Rep(n, 1, check)

    operation_rep = throughput_rep

    def details(self, throughput, operation):
        return {
            "spill_mtps": (float(np.median(throughput.mtps)), "Mtuples/s"),
            "spill_write_amp": (float(np.median(self.write_amp)), "bytes/byte"),
        }


# ----------------------------------------------------------------------
# join_groupby
# ----------------------------------------------------------------------

class JoinGroupby(Workload):
    """The paper's headline: partition both sides, join, aggregate."""

    name = "join_groupby"
    throughput_share = 1.0
    r_full = 1 << 21
    s_full = 1 << 22
    config = PartitionerConfig(num_partitions=512)

    def setup(self) -> None:
        r = make_relation(self.scaled(self.r_full), "linear")
        s = make_relation(
            self.scaled(self.s_full), "zipf", seed=self.seed, zipf_factor=ZIPF
        )
        self.tuples = len(r) + len(s)
        self.plan = join_groupby_query(r, s, aggregate="sum", config=self.config)

    def prepare_oracle(self) -> None:
        staged = execute_plan(self.plan, fused=False)
        self.rows = (staged.matches, staged.group_keys, staged.group_values)

    def rows_differ(self, result) -> bool:
        matches, keys, values = self.rows
        return not (
            result.matches == matches
            and np.array_equal(result.group_keys, keys)
            and np.array_equal(result.group_values, values)
        )

    def throughput_rep(self) -> Rep:
        with self.trace.span("plan.execute_fused", tuples=self.tuples) as span:
            result = execute_plan(self.plan, fused=True)
            span.set(
                declined=int(result.declined is not None),
                matches=result.matches,
                groups=result.num_groups,
                stats=result.operator_stats,
            )
        return Rep(self.tuples, 1, lambda: int(self.rows_differ(result)))

    operation_rep = throughput_rep

    def details(self, throughput, operation):
        return {"query_mtps": (float(np.median(throughput.mtps)), "Mtuples/s")}


WORKLOADS = {
    cls.name: cls
    for cls in (BulkUniform, BulkZipf, StreamChunks, ServiceBurst, SpillOoc, JoinGroupby)
}
