"""Streaming-gateway benchmark — socket overhead, latency, open loop.

Three questions about :class:`~repro.gateway.server.GatewayServer`:

1. **Socket overhead** — what does the TCP edge cost versus the same
   chunked work submitted to the :class:`PartitionService` in-process?
   Both sides run identical data planes (same chunking, same per-chunk
   configs, same credit-window pipelining depth); the delta is exactly
   the framing + asyncio + loopback-TCP tax.  The acceptance
   criterion: at the protocol's native 8192-tuple chunks (64 KiB of
   uint32 keys) with >= 4 concurrent streams, the gateway keeps at
   least 75% of the direct throughput (overhead <= 25%).
2. **Closed-loop latency** — per-chunk round-trip percentiles
   (p50/p95/p99) over a credit window of one, the send-wait-send
   pattern an interactive caller sees.
3. **Open-loop sustained rate** — chunks fired at scheduled instants
   from :mod:`repro.workloads.arrivals` (Poisson and burst shapes)
   regardless of how the last send fared, so credit stalls and
   admission backpressure show up as lateness instead of being hidden
   by the closed loop.

Every streamed output is verified byte-identical
(:func:`~repro.analysis.verify.outputs_identical`) to one offline
:meth:`~repro.core.partitioner.FpgaPartitioner.partition` call —
throughput with divergence would not count.

Run as a script to write the standard JSON artifact::

    PYTHONPATH=src python benchmarks/bench_gateway.py \
        --output BENCH_gateway.json
"""

import argparse
import asyncio
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.verify import outputs_identical
from repro.bench import ExperimentTable, write_json_artifact
from repro.core.modes import PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.core.pieces import piece_config
from repro.gateway import (
    GatewayClient,
    GatewayServer,
    StreamAccounting,
    global_payloads,
    iter_chunks,
    stitch_output,
    stream_partition,
)
from repro.service import PartitionRequest, PartitionService, RequestStatus
from repro.workloads.arrivals import generate_arrivals
from repro.workloads.relations import make_relation

EXPERIMENT = "Streaming gateway"

#: 8192 uint32 keys = 64 KiB per DATA frame — the protocol's native size
CHUNK_TUPLES = 8192
#: the in-run acceptance budget for the socket tax
OVERHEAD_BUDGET_PCT = 25.0
DEFAULT_STREAMS = 4
DEFAULT_TUPLES = 262_144  # 32 chunks per stream
DEFAULT_PARTITIONS = 64
DEFAULT_CREDITS = 4
ZIPF_FACTOR = 1.1
RESULT_TIMEOUT_S = 120.0


def _workload(distribution: str, tuples: int, seed: int) -> np.ndarray:
    if distribution == "zipf":
        return make_relation(
            tuples, "zipf", seed=seed, zipf_factor=ZIPF_FACTOR
        ).keys
    return make_relation(tuples, distribution, seed=seed).keys


def _direct_chunked(
    service: PartitionService,
    keys: np.ndarray,
    config: PartitionerConfig,
    chunk_tuples: int,
    credits: int,
):
    """The gateway's data plane minus the socket: chunk the relation,
    submit each chunk under the stream's HIST/RID clone with explicit
    global positions, keep at most ``credits`` chunks in flight (the
    same pipelining depth the credit window allows), stitch at the end.
    """
    accounting = StreamAccounting(config, on_overflow="hist")
    data_config = piece_config(config)
    pieces = []
    pending = deque()

    def _resolve(ticket):
        response = ticket.result(timeout=RESULT_TIMEOUT_S)
        assert response.status is RequestStatus.OK, response.status
        out = response.output
        pieces.append(
            (
                out.counts,
                np.concatenate(out.partition_keys),
                np.concatenate(out.partition_payloads),
            )
        )

    for chunk_keys, _ in iter_chunks(keys, None, chunk_tuples):
        if len(pending) >= credits:
            _resolve(pending.popleft())
        offset = accounting.observe(chunk_keys)
        pending.append(
            service.submit(
                PartitionRequest(
                    relation=chunk_keys,
                    payloads=global_payloads(None, offset, len(chunk_keys)),
                    config=data_config,
                )
            )
        )
    while pending:
        _resolve(pending.popleft())
    return stitch_output(accounting.finalize(), pieces, produced_by="direct")


def _measure_direct(relations, config, chunk_tuples, credits):
    with PartitionService(max_queue_requests=2048) as service:
        start = time.perf_counter()
        with ThreadPoolExecutor(max_workers=len(relations)) as pool:
            outputs = list(
                pool.map(
                    lambda keys: _direct_chunked(
                        service, keys, config, chunk_tuples, credits
                    ),
                    relations,
                )
            )
        elapsed = time.perf_counter() - start
    return outputs, elapsed


async def _measure_gateway(relations, config, chunk_tuples, credits):
    service = PartitionService(max_queue_requests=2048)
    service.start()
    server = GatewayServer(
        service=service,
        chunk_tuples=chunk_tuples,
        credits=credits,
        drain_backend=True,
    )
    await server.start()
    try:
        start = time.perf_counter()
        outputs = await asyncio.gather(
            *[
                stream_partition(
                    "127.0.0.1",
                    server.port,
                    keys,
                    config=config,
                    chunk_tuples=chunk_tuples,
                )
                for keys in relations
            ]
        )
        elapsed = time.perf_counter() - start
    finally:
        await server.drain()
    return outputs, elapsed


def overhead_cell(
    distribution: str,
    streams: int,
    tuples: int,
    partitions: int,
    chunk_tuples: int,
    credits: int,
    repeats: int,
) -> dict:
    """Direct-vs-gateway throughput at equal chunking and pipelining."""
    config = PartitionerConfig(num_partitions=partitions)
    relations = [
        _workload(distribution, tuples, seed=100 + i) for i in range(streams)
    ]
    offline = [FpgaPartitioner(config).partition(keys) for keys in relations]

    direct_s = gateway_s = float("inf")
    verified = True
    for _ in range(repeats):
        direct_outs, elapsed = _measure_direct(
            relations, config, chunk_tuples, credits
        )
        direct_s = min(direct_s, elapsed)
        gateway_outs, elapsed = asyncio.run(
            _measure_gateway(relations, config, chunk_tuples, credits)
        )
        gateway_s = min(gateway_s, elapsed)
        verified = verified and all(
            outputs_identical(out, ref)
            for out, ref in zip(direct_outs, offline)
        ) and all(
            outputs_identical(out, ref)
            for out, ref in zip(gateway_outs, offline)
        )

    total = streams * tuples
    direct_mtps = total / direct_s / 1e6
    gateway_mtps = total / gateway_s / 1e6
    overhead_pct = (direct_mtps - gateway_mtps) / direct_mtps * 100.0
    return {
        "cell": "overhead",
        "distribution": distribution,
        "streams": streams,
        "tuples_per_stream": tuples,
        "chunk_tuples": chunk_tuples,
        "direct_mtuples_per_s": direct_mtps,
        "gateway_mtuples_per_s": gateway_mtps,
        "overhead_pct": overhead_pct,
        "within_budget": bool(overhead_pct <= OVERHEAD_BUDGET_PCT),
        "verified": bool(verified),
    }


async def _closed_loop(config, chunks, chunk_tuples):
    service = PartitionService(max_queue_requests=256)
    service.start()
    # a credit window of one serialises the stream: send N+1 cannot
    # leave the client before chunk N's CHUNK frame lands, so the gap
    # between consecutive sends IS the per-chunk round trip
    server = GatewayServer(
        service=service,
        chunk_tuples=chunk_tuples,
        credits=1,
        drain_backend=True,
    )
    await server.start()
    try:
        keys = _workload("random", chunks * chunk_tuples, seed=7)
        reference = FpgaPartitioner(config).partition(keys)
        client = await GatewayClient.connect("127.0.0.1", server.port)
        stamps = []
        start = time.perf_counter()
        stream = await client.open_stream(config)
        for chunk_keys, chunk_pays in iter_chunks(keys, None, chunk_tuples):
            await stream.send(chunk_keys, chunk_pays)
            stamps.append(time.perf_counter())
        output = await stream.finish()
        elapsed = time.perf_counter() - start
        await client.close()
    finally:
        await server.drain()
    gaps_ms = np.diff(np.asarray(stamps)) * 1e3
    return {
        "cell": "closed_loop_latency",
        "pattern": None,
        "streams": 1,
        "chunks": chunks,
        "chunk_tuples": chunk_tuples,
        "mtuples_per_s": chunks * chunk_tuples / elapsed / 1e6,
        "p50_ms": float(np.percentile(gaps_ms, 50)),
        "p95_ms": float(np.percentile(gaps_ms, 95)),
        "p99_ms": float(np.percentile(gaps_ms, 99)),
        "stalls": len(stream.stalls),
        "verified": bool(outputs_identical(output, reference)),
    }


async def _open_loop(pattern, config, streams, chunks, rate, chunk_tuples):
    """Fire chunks at their scheduled arrival instants (per stream)."""
    service = PartitionService(max_queue_requests=2048)
    service.start()
    server = GatewayServer(
        service=service,
        chunk_tuples=chunk_tuples,
        credits=DEFAULT_CREDITS,
        drain_backend=True,
    )
    await server.start()

    async def drive(index: int):
        keys = _workload("zipf", chunks * chunk_tuples, seed=200 + index)
        reference = FpgaPartitioner(config).partition(keys)
        offsets = generate_arrivals(pattern, chunks, rate, seed=300 + index)
        client = await GatewayClient.connect("127.0.0.1", server.port)
        stream = await client.open_stream(config)
        loop = asyncio.get_running_loop()
        epoch = loop.time()
        max_late = 0.0
        for (chunk_keys, chunk_pays), when in zip(
            iter_chunks(keys, None, chunk_tuples), offsets
        ):
            delay = epoch + when - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            else:
                max_late = max(max_late, -delay)
            await stream.send(chunk_keys, chunk_pays)
        output = await stream.finish()
        stalls = len(stream.stalls)
        await client.close()
        return outputs_identical(output, reference), max_late, stalls

    try:
        start = time.perf_counter()
        results = await asyncio.gather(*[drive(i) for i in range(streams)])
        elapsed = time.perf_counter() - start
    finally:
        await server.drain()
    total = streams * chunks * chunk_tuples
    return {
        "cell": "open_loop",
        "pattern": pattern,
        "streams": streams,
        "chunks": chunks,
        "chunk_tuples": chunk_tuples,
        "offered_mtuples_per_s": streams * rate * chunk_tuples / 1e6,
        "mtuples_per_s": total / elapsed / 1e6,
        "max_lateness_ms": max(r[1] for r in results) * 1e3,
        "stalls": sum(r[2] for r in results),
        "verified": bool(all(r[0] for r in results)),
    }


def gateway_sweep(
    streams: int = DEFAULT_STREAMS,
    tuples: int = DEFAULT_TUPLES,
    partitions: int = DEFAULT_PARTITIONS,
    chunk_tuples: int = CHUNK_TUPLES,
    credits: int = DEFAULT_CREDITS,
    repeats: int = 2,
    rate: float = 64.0,
) -> List[dict]:
    chunks = max(4, tuples // chunk_tuples // 4)
    cells = [
        overhead_cell(
            distribution, streams, tuples, partitions,
            chunk_tuples, credits, repeats,
        )
        for distribution in ("random", "zipf")
    ]
    cells.append(asyncio.run(_closed_loop(
        PartitionerConfig(num_partitions=partitions), chunks * 2,
        chunk_tuples,
    )))
    for pattern in ("poisson", "burst"):
        cells.append(asyncio.run(_open_loop(
            pattern, PartitionerConfig(num_partitions=partitions),
            streams, chunks, rate, chunk_tuples,
        )))
    return cells


def gateway_tables(cells: List[dict]) -> List[ExperimentTable]:
    overhead_rows = [
        [
            cell["distribution"],
            cell["streams"],
            cell["chunk_tuples"],
            cell["direct_mtuples_per_s"],
            cell["gateway_mtuples_per_s"],
            cell["overhead_pct"],
            "yes" if cell["verified"] else "NO",
        ]
        for cell in cells
        if cell["cell"] == "overhead"
    ]
    overhead = ExperimentTable(
        experiment_id=EXPERIMENT,
        title=(
            "socket tax: gateway streaming vs direct chunked service "
            "submission at equal pipelining depth (every output "
            "verified byte-identical to one offline partition() call)"
        ),
        headers=[
            "keys", "streams", "chunk", "direct Mt/s", "gateway Mt/s",
            "overhead %", "identical",
        ],
        rows=overhead_rows,
        note=(
            f"acceptance: overhead <= {OVERHEAD_BUDGET_PCT:.0f}% at "
            f"{CHUNK_TUPLES}-tuple (64 KiB) chunks with >= "
            f"{DEFAULT_STREAMS} concurrent streams"
        ),
    )
    behaviour_rows = []
    for cell in cells:
        if cell["cell"] == "closed_loop_latency":
            behaviour_rows.append([
                "closed loop", "-", cell["streams"],
                cell["mtuples_per_s"], cell["p50_ms"], cell["p95_ms"],
                cell["p99_ms"], cell["stalls"],
                "yes" if cell["verified"] else "NO",
            ])
        elif cell["cell"] == "open_loop":
            behaviour_rows.append([
                "open loop", cell["pattern"], cell["streams"],
                cell["mtuples_per_s"], "-", "-", "-", cell["stalls"],
                "yes" if cell["verified"] else "NO",
            ])
    behaviour = ExperimentTable(
        experiment_id=EXPERIMENT,
        title=(
            "per-chunk latency (credit window 1) and open-loop "
            "sustained rate under scheduled arrivals"
        ),
        headers=[
            "loop", "arrivals", "streams", "Mt/s", "p50 ms", "p95 ms",
            "p99 ms", "stalls", "identical",
        ],
        rows=behaviour_rows,
    )
    return [overhead, behaviour]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=None,
                        help="write the JSON artifact here")
    parser.add_argument("--streams", type=int, default=DEFAULT_STREAMS)
    parser.add_argument("--tuples", type=int, default=DEFAULT_TUPLES)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--quick", action="store_true",
                        help="smaller streams, one repeat")
    args = parser.parse_args(argv)

    tuples = 65_536 if args.quick else args.tuples
    repeats = 1 if args.quick else args.repeats
    cells = gateway_sweep(
        streams=args.streams, tuples=tuples, repeats=repeats
    )
    tables = gateway_tables(cells)
    for table in tables:
        print(table.render())
        print()

    worst = max(
        cell["overhead_pct"] for cell in cells if cell["cell"] == "overhead"
    )
    within = all(
        cell["within_budget"] for cell in cells if cell["cell"] == "overhead"
    )
    verified = all(cell["verified"] for cell in cells)
    print(
        f"worst socket overhead {worst:.1f}% "
        f"(budget {OVERHEAD_BUDGET_PCT:.0f}%): "
        + ("within budget" if within else "OVER BUDGET — check")
    )
    print(
        "all outputs byte-identical to offline partition()"
        if verified
        else "IDENTITY FAILURE — check"
    )

    if args.output:
        write_json_artifact(
            args.output,
            tables,
            extra={
                "benchmark": "gateway",
                "schema": "repro-bench/1",
                "quick": bool(args.quick),
                "chunk_tuples": CHUNK_TUPLES,
                "overhead_budget_pct": OVERHEAD_BUDGET_PCT,
                "worst_overhead_pct": worst,
                "within_budget": bool(within),
                "verified": bool(verified),
                "cells": cells,
            },
        )
        print(f"wrote {args.output}")
    return 0 if (within and verified) else 1


if __name__ == "__main__":
    raise SystemExit(main())
