"""Command-line interface: ``python -m repro <command>``.

Four kinds of commands:

* ``partition`` / ``join`` / ``simulate`` — run the library on
  generated data and print the results (stats, timings, cycle counts);
* ``spill`` — the out-of-core path: ingest a relation into an on-disk
  store, stream it through the partitioner under a memory budget,
  verify the result (see ``docs/STORAGE.md``);
* ``serve`` — drive the partitioning service layer with a synthetic
  request workload and print its metrics (see ``docs/SERVICE.md``);
* ``gateway`` — the async streaming network front-end: ``serve`` runs
  the TCP server until SIGTERM drains it, ``bench`` drives an
  in-process server with concurrent client streams, optional
  mid-stream kills and byte-identity checks (``docs/GATEWAY.md``);
* ``trace`` — the same, under a :class:`~repro.obs.tracing.Tracer`:
  dump the span log (JSONL), optionally a Prometheus exposition, and
  print the per-stage critical-path summary (``docs/OBSERVABILITY.md``);
* ``validate`` — the Section 4.8 model-validation table;
* ``experiment <id>`` — regenerate one of the paper's tables/figures
  by loading its benchmark module from the repository's
  ``benchmarks/`` directory (source checkouts only).
"""

from __future__ import annotations

import argparse
import collections
import importlib.util
import pathlib
import sys
from typing import Optional, Sequence

from repro.bench import ExperimentTable, format_table
from repro.core.circuit import PartitionerCircuit
from repro.core.model import FpgaCostModel
from repro.core.modes import HashKind, LayoutMode, OutputMode, PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.cpu.partitioner import CpuPartitioner
from repro.join.hybrid_join import hybrid_join
from repro.join.radix_join import cpu_radix_join
from repro.workloads.relations import WORKLOAD_SPECS, make_relation, make_workload

#: experiment id -> (bench module, zero-arg table builder factory)
_EXPERIMENTS = {
    "fig2": ("bench_fig2_bandwidth", lambda m: m.figure2_table()),
    "tab1": ("bench_tab1_coherence", lambda m: m.table1()),
    "tab1-sim": ("bench_tab1_coherence", lambda m: m.simulated_table1()),
    "fig3a": (
        "bench_fig3_partition_cdf",
        lambda m: m.figure3_table(use_hash=False),
    ),
    "fig3b": (
        "bench_fig3_partition_cdf",
        lambda m: m.figure3_table(use_hash=True),
    ),
    "fig4": ("bench_fig4_cpu_throughput", lambda m: m.figure4_table()),
    "tab2": ("bench_tab2_resources", lambda m: m.table2()),
    "fig8": ("bench_fig8_tuple_width", lambda m: m.figure8_table()),
    "fig9": ("bench_fig9_mode_throughput", lambda m: m.figure9_table()),
    "sec48": (
        "bench_sec48_model_validation",
        lambda m: m.validation_table(),
    ),
    "fig10a": (
        "bench_fig10_partitions",
        lambda m: m.figure10_table(make_workload("A", scale=20000), 1),
    ),
    "fig10b": (
        "bench_fig10_partitions",
        lambda m: m.figure10_table(make_workload("A", scale=20000), 10),
    ),
    "fig11a": (
        "bench_fig11_threads",
        lambda m: m.figure11_table(make_workload("A", scale=20000), "A"),
    ),
    "fig11b": (
        "bench_fig11_threads",
        lambda m: m.figure11_table(make_workload("B", scale=20000), "B"),
    ),
    "fig12c": ("bench_fig12_distributions", lambda m: m.figure12_table("C")),
    "fig12d": ("bench_fig12_distributions", lambda m: m.figure12_table("D")),
    "fig12e": ("bench_fig12_distributions", lambda m: m.figure12_table("E")),
    "fig13": ("bench_fig13_skew", lambda m: m.figure13_table()),
    "future": ("bench_future_platforms", lambda m: m.sweep_table()),
}


def _benchmarks_dir() -> Optional[pathlib.Path]:
    """Locate benchmarks/ next to the installed source tree."""
    here = pathlib.Path(__file__).resolve()
    for parent in here.parents:
        candidate = parent / "benchmarks"
        if (candidate / "conftest.py").exists():
            return candidate
    return None


def _load_bench(module_name: str):
    directory = _benchmarks_dir()
    if directory is None:
        raise SystemExit(
            "experiment commands need the repository's benchmarks/ "
            "directory (run from a source checkout)"
        )
    path = directory / f"{module_name}.py"
    spec = importlib.util.spec_from_file_location(module_name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _parse_mode(mode: str) -> PartitionerConfig:
    try:
        output, layout = mode.upper().split("/")
        return PartitionerConfig(
            output_mode=OutputMode(output), layout_mode=LayoutMode(layout)
        )
    except (ValueError, KeyError) as error:
        raise SystemExit(
            f"invalid mode {mode!r}; expected e.g. PAD/VRID"
        ) from error


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_list(_args) -> int:
    """List the reproducible experiment ids."""
    print("experiments:")
    for key in sorted(_EXPERIMENTS):
        print(f"  {key}")
    return 0


def cmd_experiment(args) -> int:
    """Regenerate one paper table/figure (optionally charted)."""
    if args.id not in _EXPERIMENTS:
        raise SystemExit(
            f"unknown experiment {args.id!r}; see 'repro list'"
        )
    module_name, builder = _EXPERIMENTS[args.id]
    module = _load_bench(module_name)
    table: ExperimentTable = builder(module)
    print(table.render())
    if args.chart:
        from repro.bench.charts import chart_table_column

        print()
        print(chart_table_column(table, args.chart))
    return 0


def cmd_validate(args) -> int:
    """Print the Section 4.8 model-validation table."""
    model = FpgaCostModel()
    rows = []
    for label, row in model.validation_table(args.tuples).items():
        rows.append(
            [
                label,
                row["r"],
                row["bandwidth_gbs"],
                row["model_mtuples"],
                row["measured_mtuples"],
                100 * row["relative_error"],
            ]
        )
    print(
        format_table(
            "Section 4.8 model validation",
            ["mode", "r", "B(r)", "model Mt/s", "paper Mt/s", "err %"],
            rows,
        )
    )
    return 0


def cmd_partition(args) -> int:
    """Partition a generated relation and print its stats."""
    config = _parse_mode(args.mode)
    config = PartitionerConfig(
        num_partitions=args.partitions,
        output_mode=config.output_mode,
        layout_mode=config.layout_mode,
        hash_kind=HashKind.RADIX if args.radix else HashKind.MURMUR,
    )
    relation = make_relation(args.tuples, args.distribution, seed=args.seed)
    if args.backend == "cpu":
        out = CpuPartitioner(
            num_partitions=args.partitions,
            hash_kind=config.hash_kind,
            threads=args.threads,
            engine=args.engine,
        ).partition(relation)
    else:
        out = FpgaPartitioner(
            config, engine=args.engine, threads=args.threads
        ).partition(relation, on_overflow="hist")
    model = FpgaCostModel()
    print(f"partitioned {out.num_tuples:,} tuples into "
          f"{out.num_partitions} partitions ({out.produced_by})")
    print(f"  largest partition : {out.max_partition_tuples():,} tuples")
    print(f"  dummy padding     : {100 * out.padding_fraction:.2f}%")
    print(f"  bytes read/written: {out.bytes_read:,} / {out.bytes_written:,}"
          f"  (r = {out.read_write_ratio:.2f})")
    if args.backend == "fpga":
        rate = model.end_to_end_mtuples(
            out.config, out.num_tuples, calibrated=True
        )
        print(f"  prototype rate    : {rate:.0f} Mtuples/s "
              f"({out.config.mode_label})")
    return 0


def cmd_join(args) -> int:
    """Run and compare the CPU and hybrid joins on a workload."""
    workload = make_workload(
        args.workload, scale=args.scale, skew_s_zipf=args.zipf
    )
    spec = WORKLOAD_SPECS[args.workload]
    kwargs = dict(
        threads=args.threads,
        timing_r_tuples=spec.r_tuples,
        timing_s_tuples=spec.s_tuples,
        engine=args.engine,
    )
    cpu = cpu_radix_join(workload, args.partitions, **kwargs)
    hybrid = hybrid_join(
        workload,
        PartitionerConfig(
            num_partitions=args.partitions,
            output_mode=OutputMode.PAD,
            layout_mode=LayoutMode.VRID,
        ),
        on_overflow="hist",
        **kwargs,
    )
    rows = [
        [
            "cpu",
            cpu.timing.partition_seconds,
            cpu.timing.build_probe_seconds,
            cpu.timing.total_seconds,
            cpu.throughput_mtuples,
            cpu.matches,
        ],
        [
            hybrid.timing.partitioner,
            hybrid.timing.partition_seconds,
            hybrid.timing.build_probe_seconds,
            hybrid.timing.total_seconds,
            hybrid.throughput_mtuples,
            hybrid.matches,
        ],
    ]
    print(
        format_table(
            f"join on workload {args.workload} "
            f"(timing at paper scale, data at 1/{args.scale})",
            ["engine", "part s", "b+p s", "total s", "Mt/s", "matches"],
            rows,
        )
    )
    return 0


#: experiments light enough for the one-shot report (the join sweeps
#: and streamed-histogram figures are minutes-long; run those via
#: ``pytest benchmarks/`` instead).
_REPORT_EXPERIMENTS = (
    "fig2",
    "tab1",
    "tab1-sim",
    "fig4",
    "tab2",
    "fig8",
    "fig9",
    "sec48",
    "future",
)


def cmd_report(args) -> int:
    """Regenerate the light experiments into one markdown report."""
    sections = []
    for experiment_id in _REPORT_EXPERIMENTS:
        module_name, builder = _EXPERIMENTS[experiment_id]
        module = _load_bench(module_name)
        table: ExperimentTable = builder(module)
        sections.append(f"## {experiment_id}\n\n```\n{table.render()}\n```")
        print(f"  reproduced {experiment_id}", flush=True)
    body = (
        "# Reproduction report\n\n"
        "Regenerated by `python -m repro report`.  Model numbers are\n"
        "produced by the implemented system; 'paper' columns are the\n"
        "published measurements.  See EXPERIMENTS.md for the full\n"
        "per-figure comparison including the join sweeps.\n\n"
        + "\n\n".join(sections)
        + "\n"
    )
    with open(args.output, "w") as handle:
        handle.write(body)
    print(f"wrote {args.output}")
    return 0


def _synthetic_requests(args):
    """Build the synthetic request stream ``serve``/``trace`` share."""
    import dataclasses

    import numpy as np

    from repro.service import PartitionRequest, Priority

    rng = np.random.default_rng(args.seed)
    mode = getattr(args, "mode", None)
    config = (
        dataclasses.replace(
            _parse_mode(mode), num_partitions=args.partitions
        )
        if mode
        else PartitionerConfig(num_partitions=args.partitions)
    )
    distribution = getattr(args, "distribution", None)
    zipf = getattr(args, "zipf", 0.0) or 0.0
    priorities = (Priority.LOW, Priority.NORMAL, Priority.HIGH)
    lo, hi = args.min_tuples, args.max_tuples
    if lo < 1 or hi < lo:
        raise SystemExit(
            f"need 1 <= --min-tuples <= --max-tuples, got {lo}..{hi}"
        )
    deadline = getattr(args, "deadline", 0.0)

    def keys_for(index: int, size: int) -> np.ndarray:
        if distribution:
            return make_relation(
                size, distribution, seed=args.seed + index,
                zipf_factor=zipf,
            ).keys
        return rng.integers(
            0, 2**32, size=size, dtype=np.uint64
        ).astype(np.uint32)

    return [
        PartitionRequest(
            relation=keys_for(i, int(size)),
            config=config,
            priority=priorities[i % len(priorities)],
            deadline_s=deadline or None,
            on_overflow=getattr(args, "on_overflow", "raise"),
        )
        for i, size in enumerate(
            rng.integers(lo, hi + 1, size=args.requests)
        )
    ]


def _write_trace_outputs(args, tracer, service) -> None:
    """Dump the JSONL span log / Prometheus exposition when asked."""
    if getattr(args, "trace_out", None):
        count = tracer.to_jsonl(args.trace_out)
        print(f"wrote {count} spans to {args.trace_out}")
    if getattr(args, "prometheus_out", None):
        from repro.obs import render_prometheus

        text = render_prometheus(
            service.metrics.to_dict(), tracer.export()
        )
        with open(args.prometheus_out, "w") as handle:
            handle.write(text)
        print(f"wrote Prometheus exposition to {args.prometheus_out}")


def _check_serve_identity(requests, responses) -> int:
    """Count responses whose contents differ from the static reference.

    The reference is a fresh single-shot partitioner per config with
    ``on_overflow="hist"`` — partition contents and counts are
    identical across output modes and backends, so every successful
    response (optimized or not) must match it byte for byte.
    """
    from repro.analysis.verify import outputs_identical
    from repro.core.partitioner import FpgaPartitioner
    from repro.service import RequestStatus

    mismatches = 0
    partitioners = {}
    try:
        for request, response in zip(requests, responses):
            if response.status is not RequestStatus.OK:
                continue
            key = request.config
            if key not in partitioners:
                partitioners[key] = FpgaPartitioner(config=request.config)
            reference = partitioners[key].partition(
                request.relation, request.payloads, on_overflow="hist"
            )
            if not outputs_identical(
                response.output, reference, check_accounting=False
            ):
                mismatches += 1
    finally:
        for partitioner in partitioners.values():
            partitioner.close()
    return mismatches


def cmd_serve(args) -> int:
    """Drive the service layer with a synthetic request workload."""
    from repro.obs import Tracer
    from repro.service import (
        DegradationPolicy,
        FaultInjector,
        PartitionService,
        RequestStatus,
        TokenBucket,
    )

    requests = _synthetic_requests(args)
    policy = DegradationPolicy(
        saturation=(
            TokenBucket(args.saturate_tuples_per_s)
            if args.saturate_tuples_per_s
            else None
        ),
        fault_injector=(
            FaultInjector(fail_rate=args.fail_rate, seed=args.seed)
            if args.fail_rate
            else None
        ),
    )
    tracer = (
        Tracer() if (args.trace_out or args.prometheus_out) else None
    )
    optimizer = None
    if args.optimize:
        from repro.optimize import AdaptiveOptimizer

        optimizer = AdaptiveOptimizer(seed=args.seed)
    service = PartitionService(
        max_queue_requests=args.queue,
        max_batch_requests=1 if args.naive else args.batch,
        policy=policy,
        tracer=tracer,
        optimizer=optimizer,
    )
    import time as _time

    # graceful drain rather than plain stop: in-flight tickets complete,
    # late submits would get ServiceDrainingError (same path the gateway's
    # SIGTERM handler exercises)
    service.start()
    try:
        start = _time.perf_counter()
        tickets = [service.submit(request) for request in requests]
        responses = [ticket.result(timeout=600) for ticket in tickets]
        elapsed = _time.perf_counter() - start
    finally:
        service.drain()
    outcomes = {status: 0 for status in RequestStatus}
    for response in responses:
        outcomes[response.status] += 1
    print(service.metrics.to_table("repro serve").render())
    print()
    print(f"served {len(requests)} requests in {elapsed:.3f}s "
          f"({len(requests) / elapsed:.0f} req/s, "
          f"{'naive' if args.naive else 'batched'} dispatch)")
    print("  outcomes          : " + ", ".join(
        f"{status.value} {count}" for status, count in outcomes.items()
    ))
    degraded = sum(1 for r in responses if r.degraded)
    print(f"  degraded to cpu   : {degraded}")
    failed = collections.Counter(
        r.error_type for r in responses if r.status is RequestStatus.FAILED
    )
    if failed:
        print("  failed by type    : " + ", ".join(
            f"{name} {count}" for name, count in sorted(failed.items())
        ))
    rejected = [r for r in responses if r.status is RequestStatus.REJECTED]
    if rejected:
        hints = [r.retry_after for r in rejected if r.retry_after]
        print(f"  retry-after hints : "
              f"{min(hints):.3f}s .. {max(hints):.3f}s")
    if optimizer is not None:
        snap = optimizer.snapshot()
        print("  optimizer         : " + ", ".join(
            f"{label} {count}"
            for label, count in sorted(snap["decisions"].items())
        ) + f" ({snap['observations']} rate observations)")
    if args.check_identity:
        mismatches = _check_serve_identity(requests, responses)
        print(f"  identity check    : "
              f"{len(responses) - mismatches}/{len(responses)} "
              f"byte-identical to static reference")
        if mismatches:
            raise SystemExit(f"{mismatches} responses differ from static")
    if args.output:
        import json

        with open(args.output, "w") as handle:
            json.dump(service.snapshot(), handle, indent=2)
        print(f"wrote {args.output}")
    if tracer is not None:
        _write_trace_outputs(args, tracer, service)
    return 0


def cmd_optimize(args) -> int:
    """Explain optimizer decisions for a sweep of synthetic workloads."""
    import dataclasses

    from repro.optimize import AdaptiveOptimizer, WorkloadProfile

    if args.action != "explain":  # pragma: no cover - argparse enforces
        raise SystemExit(f"unknown optimize action {args.action!r}")
    optimizer = AdaptiveOptimizer(seed=args.seed)
    config = None
    if args.mode:
        config = dataclasses.replace(
            _parse_mode(args.mode), num_partitions=args.partitions
        )
    workloads = {}
    for spec in args.workloads:
        name, _, factor = spec.partition(":")
        distribution = name
        zipf = float(factor) if factor else 0.0
        relation = make_relation(
            args.tuples, distribution, seed=args.seed, zipf_factor=zipf
        )
        label = f"{distribution}({zipf:g})" if zipf else distribution
        workloads[label] = WorkloadProfile.from_keys(
            relation.keys, tuple_bytes=8
        )
    rows = optimizer.explain(workloads, config=config)
    headers = list(rows[0].keys()) if rows else []
    table = ExperimentTable(
        experiment_id="repro optimize",
        title="adaptive optimizer decisions "
              + ("(request config)" if config else "(planned configs)"),
        headers=headers,
        rows=[[row[h] for h in headers] for row in rows],
        note=f"{args.tuples} tuples per workload, seed {args.seed}",
    )
    print(table.render())
    return 0


def cmd_trace(args) -> int:
    """Run a traced workload; dump spans and the critical-path table."""
    from repro.obs import Tracer, critical_path_table
    from repro.service import PartitionService

    requests = _synthetic_requests(args)
    tracer = Tracer(capacity=args.capacity)
    service = PartitionService(
        max_batch_requests=1 if args.naive else args.batch,
        tracer=tracer,
    )
    with service:
        tickets = [service.submit(request) for request in requests]
        for ticket in tickets:
            ticket.result(timeout=600)
    spans = tracer.export()
    print(critical_path_table(spans, title="repro trace").render())
    print()
    _write_trace_outputs(args, tracer, service)
    return 0


def cmd_spill(args) -> int:
    """Out-of-core partitioning demo: ingest, spill, verify, report."""
    import tempfile

    from repro.obs import Tracer
    from repro.storage import RelationStore, SpillPartitioner

    mode = _parse_mode(args.mode)
    config = PartitionerConfig(
        num_partitions=args.partitions,
        output_mode=mode.output_mode,
        layout_mode=mode.layout_mode,
    )
    relation = make_relation(args.tuples, args.distribution, seed=args.seed)
    base = pathlib.Path(
        args.dir or tempfile.mkdtemp(prefix="repro-spill-")
    )
    tracer = Tracer()
    store = RelationStore.ingest(
        relation, base / "store", chunk_tuples=args.chunk_tuples
    ).seal()
    store.verify()
    with SpillPartitioner(
        config,
        backend=args.backend,
        max_bytes_in_memory=args.memory_budget,
        tracer=tracer,
    ) as spiller:
        spill = spiller.run(store, base / "run", on_overflow="hist")
    spill.verify()
    out = spill.to_output()
    spans = tracer.export()
    flushes = sum(1 for s in spans if s.name == "spill_flush")
    print(f"spilled {out.num_tuples:,} tuples into "
          f"{out.num_partitions} partitions "
          f"({store.num_chunks} chunks, {flushes} flushes, "
          f"budget {args.memory_budget:,} B)")
    print(f"  run directory     : {spill.path}")
    print(f"  largest partition : {out.max_partition_tuples():,} tuples")
    print(f"  bytes read/written: {out.bytes_read:,} / "
          f"{out.bytes_written:,}  (r = {out.read_write_ratio:.2f})")
    if store.sketch is not None:
        plan = store.sketch.partition_plan(config.num_partitions)
        print(f"  ingest sketch     : ~{plan.distinct_keys:,} distinct "
              f"keys, max key share {100 * plan.max_key_share:.2f}%"
              f"{' (SKEWED)' if plan.skewed else ''}")
    if args.check_identity:
        from repro.analysis.verify import outputs_identical

        mem = FpgaPartitioner(config).partition(relation)
        report = outputs_identical(out, mem)
        print(f"  vs in-memory      : "
              f"{'byte-identical' if report else 'MISMATCH'}"
              + "".join(f" ({failure})" for failure in report.failures))
        if not report:
            return 1
    if args.keep:
        print(f"  kept store + run under {base}")
    else:
        spill.cleanup()
        store.delete()
        try:
            base.rmdir()
        except OSError:
            pass
    return 0


def cmd_cluster(args) -> int:
    """Sharded cluster driver: ``serve`` a workload through a router."""
    import numpy as np

    from repro.analysis.verify import outputs_identical
    from repro.cluster import ShardRouter
    from repro.obs import Tracer

    mode = _parse_mode(args.mode)
    config = PartitionerConfig(
        num_partitions=args.partitions,
        output_mode=mode.output_mode,
        layout_mode=mode.layout_mode,
    )

    tracer = Tracer() if args.prometheus_out else None
    router = ShardRouter(
        args.shards,
        seed=args.seed,
        replicas=args.replicas,
        handoff_tuples=args.handoff_tuples or None,
        tracer=tracer,
    )
    rng = np.random.default_rng(args.seed)
    kill_at = (
        args.requests // 2 if args.kill_shard is not None else None
    )
    identical = 0
    with router:
        for i in range(args.requests):
            if kill_at is not None and i == kill_at:
                victim = router.nodes[args.kill_shard].shard_id
                router.kill_shard(victim)
                print(f"killed {victim} after request {i}")
            relation = make_relation(
                args.tuples, args.distribution,
                seed=int(rng.integers(0, 2**31)),
            )
            response = router.partition(
                relation, config=config, on_overflow="hist"
            )
            if not response.ok:
                raise SystemExit(f"request {i} failed: {response.error}")
            if args.check_identity:
                single = FpgaPartitioner(config).partition(
                    relation, on_overflow="hist"
                )
                report = outputs_identical(response.output, single)
                if not report:
                    raise SystemExit(
                        f"request {i}: {report.failures[0]} "
                        f"(cluster vs single-node output)"
                    )
                identical += 1
        snap = router.snapshot()
        if args.prometheus_out:
            with open(args.prometheus_out, "w") as handle:
                handle.write(router.prometheus())
            print(f"wrote Prometheus exposition to {args.prometheus_out}")
    stats = snap["router"]
    print(f"served {stats['requests']} requests on {args.shards} shards "
          f"({stats['completed']} ok, {stats['failed']} failed)")
    print(f"  failovers         : {stats['failovers']}")
    print(f"  spill handoffs    : {stats['handoffs']}")
    print(f"  degraded requests : {stats['degraded']}")
    for shard_id, shard in snap["shards"].items():
        s = shard["shard"]
        print(f"  {shard_id:<10}: {s['requests']} reqs, "
              f"{s['tuples']} tuples, breaker {s['breaker']}, "
              f"{'alive' if s['alive'] else 'down'}")
    if args.check_identity:
        print(f"  byte-identity     : {identical}/{stats['requests']} "
              f"requests verified against single-node partition()")
    return 0


def cmd_simulate(args) -> int:
    """Run the cycle-level circuit and print its counters."""
    config = _parse_mode(args.mode)
    config = PartitionerConfig(
        num_partitions=args.partitions,
        output_mode=config.output_mode,
        layout_mode=config.layout_mode,
    )
    relation = make_relation(args.tuples, args.distribution, seed=args.seed)
    circuit = PartitionerCircuit(
        config, qpi_bandwidth_gbs=args.bandwidth or None
    )
    if config.layout_mode is LayoutMode.VRID:
        result = circuit.run(relation.keys, None,
                             fast_forward=args.fast_forward)
    else:
        result = circuit.run(relation.keys, relation.payloads,
                             fast_forward=args.fast_forward)
    stats = result.stats
    streaming = stats.partition_pass_cycles - stats.flush_cycles
    print(f"simulated {stats.tuples_in:,} tuples ({config.mode_label}, "
          f"{args.partitions} partitions)")
    print(f"  cycles            : {stats.cycles:,} "
          f"(histogram {stats.histogram_pass_cycles:,}, "
          f"flush {stats.flush_cycles:,})")
    print(f"  lines in/out      : {stats.lines_in:,} / {stats.lines_out:,}")
    print(f"  lines/cycle       : {stats.lines_in / max(1, streaming):.2f} "
          f"(streaming)")
    print(f"  flow-ctrl stalls  : "
          f"{stats.combiner_stall_cycles + stats.writeback_stall_cycles} "
          f"(downstream back-pressure, not pipeline hazards)")
    print(f"  forwarding hits   : {stats.forwarding_hits:,}")
    print(f"  back-pressure     : {stats.input_backpressure_cycles:,} cycles")
    print(f"  dummy slots       : {stats.dummy_slots_out:,} "
          f"({100 * stats.output_padding_fraction:.2f}%)")
    return 0


def cmd_pipeline(args) -> int:
    """Fused vs staged join+group-by pipeline on a Zipf-skewed stream.

    Runs the same plan through both executors, checks row identity
    (non-zero exit when they disagree), and prints the wall-clock
    comparison — the CI smoke entry point for the plan layer.
    """
    import time

    import numpy as np

    from repro.plan import execute_plan, join_groupby_query

    workload = make_workload(
        args.workload, scale=args.scale, seed=args.seed,
        skew_s_zipf=args.zipf,
    )
    plan = join_groupby_query(
        workload.r, workload.s, aggregate=args.aggregate,
        config=PartitionerConfig(num_partitions=args.partitions),
        on_overflow="hist",
    )

    def _run(fused: bool):
        start = time.perf_counter()
        result = execute_plan(plan, engine=args.engine, fused=fused)
        return result, time.perf_counter() - start

    fused, fused_s = _run(True)
    staged, staged_s = _run(False)

    identical = (
        fused.matches == staged.matches
        and np.array_equal(fused.group_keys, staged.group_keys)
        and np.array_equal(fused.group_values, staged.group_values)
    )
    tuples = len(workload.r) + len(workload.s)
    rows = [
        ["fused", fused_s, tuples / max(fused_s, 1e-9) / 1e6,
         fused.matches, fused.num_groups],
        ["staged", staged_s, tuples / max(staged_s, 1e-9) / 1e6,
         staged.matches, staged.num_groups],
    ]
    print(
        format_table(
            f"join+group-by({args.aggregate}) on workload {args.workload}"
            + (f", Zipf {args.zipf}" if args.zipf else ""),
            ["executor", "wall s", "Mt/s", "matches", "groups"],
            rows,
        )
    )
    if fused.operator_stats:
        busy = ", ".join(
            f"{name} {stats['busy_s'] * 1e3:.1f}ms/{stats['calls']}"
            for name, stats in sorted(fused.operator_stats.items())
        )
        print(f"  fused operators: {busy}")
    print(
        "  identity check : "
        + ("ok (fused ≡ staged)" if identical else "FAILED")
    )
    return 0 if identical else 1


def _gateway_backend(args):
    """Start the gateway's backend: a service, or a shard cluster."""
    if getattr(args, "cluster", 0):
        from repro.cluster import ShardRouter

        router = ShardRouter(args.cluster, seed=args.seed)
        router.start()
        return None, router
    from repro.service import PartitionService

    service = PartitionService(max_queue_requests=args.queue)
    service.start()
    return service, None


def _fd_count() -> int:
    """Open file descriptors of this process (-1 when unknowable)."""
    import os

    try:
        return len(os.listdir("/proc/self/fd"))
    except OSError:
        return -1


async def _gateway_serve(args) -> int:
    """Run the gateway until SIGTERM/SIGINT drains it."""
    import asyncio

    from repro.gateway import GatewayServer
    from repro.obs import Tracer

    tracer = Tracer() if args.prometheus_out else None
    optimizer = None
    if args.optimize:
        from repro.optimize import AdaptiveOptimizer

        optimizer = AdaptiveOptimizer(seed=args.seed)
    service, router = _gateway_backend(args)
    server = GatewayServer(
        service=service,
        router=router,
        host=args.host,
        port=args.port,
        chunk_tuples=args.chunk_tuples,
        credits=args.credits,
        tracer=tracer,
        optimizer=optimizer,
        drain_backend=True,
    )
    await server.start()
    server.install_signal_handlers(asyncio.get_running_loop())
    backend = f"{args.cluster}-shard cluster" if args.cluster else "service"
    print(f"gateway listening on {args.host}:{server.port} "
          f"({backend} backend, {args.credits}-chunk credit window, "
          f"{args.chunk_tuples} tuples/chunk; SIGTERM drains)",
          flush=True)
    await server.serve_forever()
    snap = server.metrics.to_dict()
    counters = snap["counters"]
    print("gateway drained")
    print(f"  connections       : {counters['connections_opened']}")
    print(f"  streams           : {counters['streams_completed']} completed, "
          f"{counters['streams_drained']} drained, "
          f"{counters['streams_failed']} failed")
    print(f"  chunks in/out     : {counters['chunks_in']} / "
          f"{counters['chunks_out']} "
          f"({counters['tuples_in']} tuples)")
    print(f"  backpressure      : {counters['backpressure_stalls']} stalls")
    if args.prometheus_out:
        from repro.obs import prometheus_from_spans

        text = server.metrics.to_prometheus()
        text += prometheus_from_spans(tracer.export())
        with open(args.prometheus_out, "w") as handle:
            handle.write(text)
        print(f"wrote Prometheus exposition to {args.prometheus_out}")
    return 0


async def _gateway_bench(args) -> int:
    """In-process gateway + N concurrent client streams (CI smoke)."""
    import asyncio
    import dataclasses

    from repro.analysis.verify import outputs_identical
    from repro.gateway import GatewayClient, GatewayServer

    config = dataclasses.replace(
        _parse_mode(args.mode), num_partitions=args.partitions
    )
    relations = [
        make_relation(
            args.tuples, args.distribution, seed=args.seed + i,
            zipf_factor=args.zipf,
        ).keys
        for i in range(args.streams)
    ]

    optimizer = None
    if args.optimize:
        from repro.optimize import AdaptiveOptimizer

        optimizer = AdaptiveOptimizer(seed=args.seed)
    service, router = _gateway_backend(args)
    server = GatewayServer(
        service=service,
        router=router,
        chunk_tuples=args.chunk_tuples,
        credits=args.credits,
        optimizer=optimizer,
        drain_backend=True,
    )
    await server.start()
    fd_baseline = _fd_count()
    loop = asyncio.get_running_loop()

    async def run_stream(index: int) -> dict:
        keys = relations[index]
        from repro.gateway.chunking import iter_chunks

        chunks = iter_chunks(keys, None, args.chunk_tuples)
        kill_at = (
            max(1, len(chunks) // 2)
            if index == args.kill_stream
            else None
        )
        offsets = None
        if args.arrival != "closed":
            from repro.workloads import generate_arrivals

            offsets = generate_arrivals(
                args.arrival, len(chunks), args.rate,
                seed=args.seed + index,
            )
        client = await GatewayClient.connect("127.0.0.1", server.port)
        try:
            stream = await client.open_stream(
                config, on_overflow=args.on_overflow
            )
            started = loop.time()
            for j, (chunk_keys, _) in enumerate(chunks):
                if kill_at is not None and j == kill_at:
                    # mid-stream kill: drop the connection with chunks
                    # in flight; the server must clean up and the other
                    # streams must stay byte-identical
                    client.abort()
                    return {"stream": index, "killed": True, "chunks": j}
                if offsets is not None:
                    delay = started + offsets[j] - loop.time()
                    if delay > 0:
                        await asyncio.sleep(delay)
                await stream.send(chunk_keys)
            output = await stream.finish()
            return {
                "stream": index,
                "killed": False,
                "chunks": len(chunks),
                "elapsed": loop.time() - started,
                "stalls": len(stream.stalls),
                "output": output,
            }
        finally:
            await client.close()

    arrival = (
        "closed loop" if args.arrival == "closed"
        else f"open loop, {args.arrival} arrivals at {args.rate:g} chunks/s"
    )
    backend = f"{args.cluster}-shard cluster" if args.cluster else "service"
    print(f"gateway bench: {args.streams} streams x {args.tuples} "
          f"{args.distribution} tuples ({config.mode_label}, "
          f"{args.partitions} partitions, {args.chunk_tuples} tuples/chunk, "
          f"{backend} backend, {arrival})")
    results = await asyncio.gather(
        *(run_stream(i) for i in range(args.streams)),
        return_exceptions=True,
    )
    await server.drain()

    failures = 0
    survivors = []
    for i, result in enumerate(results):
        if isinstance(result, BaseException):
            print(f"  stream-{i} : FAILED ({result})")
            failures += 1
        elif result["killed"]:
            print(f"  stream-{i} : killed mid-stream "
                  f"after {result['chunks']} chunks")
        else:
            rate = args.tuples / max(result["elapsed"], 1e-9) / 1e6
            print(f"  stream-{i} : {rate:6.2f} Mt/s, "
                  f"{result['chunks']} chunks, "
                  f"{result['stalls']} backpressure stalls")
            survivors.append(result)

    mismatches = 0
    if args.check_identity:
        for result in survivors:
            partitioner = FpgaPartitioner(config)
            try:
                reference = partitioner.partition(
                    relations[result["stream"]],
                    on_overflow=args.on_overflow,
                )
            finally:
                partitioner.close()
            if not outputs_identical(result["output"], reference):
                mismatches += 1
                print(f"  stream-{result['stream']} : "
                      f"IDENTITY MISMATCH vs offline partition()")
        print(f"  byte-identity     : "
              f"{len(survivors) - mismatches}/{len(survivors)} surviving "
              f"streams identical to offline partition()")

    counters = server.metrics.to_dict()["counters"]
    print(f"  backpressure      : "
          f"{counters['backpressure_stalls']} admission stalls, "
          f"{counters['errors_sent']} errors sent")
    current = asyncio.current_task()
    leaked_tasks = [
        task for task in asyncio.all_tasks()
        if task is not current and not task.done()
    ]
    fd_final = _fd_count()
    leaked_fds = (
        max(0, fd_final - fd_baseline)
        if fd_baseline >= 0 and fd_final >= 0
        else 0
    )
    print(f"  leaked tasks      : {len(leaked_tasks)}")
    print(f"  leaked fds        : {leaked_fds}")
    if args.prometheus_out:
        with open(args.prometheus_out, "w") as handle:
            handle.write(server.metrics.to_prometheus())
        print(f"wrote Prometheus exposition to {args.prometheus_out}")
    if failures or mismatches or leaked_tasks or leaked_fds:
        return 1
    return 0


def cmd_gateway(args) -> int:
    """Async streaming gateway: run the front-end, or bench it."""
    import asyncio

    if args.action == "serve":
        return asyncio.run(_gateway_serve(args))
    return asyncio.run(_gateway_bench(args))


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FPGA-based Data Partitioning (SIGMOD'17) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list reproducible experiments")

    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", help="experiment id (see 'repro list')")
    p.add_argument(
        "--chart",
        metavar="COLUMN",
        help="also render an ASCII bar chart of this table column",
    )

    p = sub.add_parser("validate", help="Section 4.8 model validation")
    p.add_argument("--tuples", type=int, default=128 * 10**6)

    p = sub.add_parser("partition", help="partition a generated relation")
    p.add_argument("--tuples", type=int, default=1_000_000)
    p.add_argument("--partitions", type=int, default=1024)
    p.add_argument("--mode", default="PAD/RID", help="e.g. HIST/VRID")
    p.add_argument("--distribution", default="random")
    p.add_argument("--backend", choices=["fpga", "cpu"], default="fpga",
                   help="which partitioner implementation to run")
    p.add_argument("--engine", choices=["serial", "parallel"], default=None,
                   help="morsel execution engine (default: legacy path)")
    p.add_argument("--threads", type=int, default=10,
                   help="worker count for --engine / cpu cost model")
    p.add_argument("--radix", action="store_true",
                   help="radix bits instead of murmur")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("join", help="CPU vs hybrid join on a workload")
    p.add_argument("--workload", choices=sorted(WORKLOAD_SPECS), default="A")
    p.add_argument("--threads", type=int, default=10)
    p.add_argument("--partitions", type=int, default=8192)
    p.add_argument("--scale", type=int, default=20000)
    p.add_argument("--zipf", type=float, default=None,
                   help="skew S with this Zipf factor")
    p.add_argument("--engine", choices=["serial", "parallel"], default=None,
                   help="morsel execution engine for both joins")

    p = sub.add_parser(
        "report", help="write the light experiments to a markdown report"
    )
    p.add_argument("--output", default="REPORT.md")

    p = sub.add_parser(
        "serve",
        help="drive the partitioning service with a request workload",
    )
    p.add_argument("--requests", type=int, default=200,
                   help="synthetic requests to submit (open loop)")
    p.add_argument("--min-tuples", type=int, default=256)
    p.add_argument("--max-tuples", type=int, default=4096)
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--batch", type=int, default=64,
                   help="max requests coalesced per kernel invocation")
    p.add_argument("--naive", action="store_true",
                   help="one-request-at-a-time dispatch (baseline)")
    p.add_argument("--queue", type=int, default=1024,
                   help="admission-queue bound (excess rejects)")
    p.add_argument("--deadline", type=float, default=0.0,
                   help="per-request deadline in seconds (0 = none)")
    p.add_argument("--fail-rate", type=float, default=0.0,
                   help="inject FPGA faults at this rate (degradation)")
    p.add_argument("--saturate-tuples-per-s", type=float, default=0.0,
                   help="FPGA token-bucket rate (0 = unlimited)")
    p.add_argument("--output", default=None,
                   help="also write ServiceMetrics JSON here")
    p.add_argument("--trace-out", default=None,
                   help="trace the run; write the span log (JSONL) here")
    p.add_argument("--prometheus-out", default=None,
                   help="trace the run; write a Prometheus exposition here")
    p.add_argument("--optimize", action="store_true",
                   help="attach the adaptive optimizer (sketch-driven "
                        "backend routing and heavy-hitter isolation)")
    p.add_argument("--mode", default=None,
                   help="request output/layout mode, e.g. PAD/RID "
                        "(default: the config default)")
    p.add_argument("--distribution", default=None,
                   help="generate request keys with this distribution "
                        "(default: legacy uniform stream)")
    p.add_argument("--zipf", type=float, default=0.0,
                   help="Zipf factor for --distribution zipf")
    p.add_argument("--on-overflow", default="raise",
                   choices=["raise", "hist", "cpu"],
                   help="PAD overflow policy for every request")
    p.add_argument("--check-identity", action="store_true",
                   help="verify every OK response against a static "
                        "single-shot reference (exit 1 on mismatch)")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "optimize",
        help="adaptive-optimizer tooling (decision explain table)",
    )
    p.add_argument("action", choices=["explain"],
                   help="explain: print the decision table for a "
                        "sweep of synthetic workloads")
    p.add_argument("--workloads", nargs="+",
                   default=["random", "zipf:0.9", "zipf:1.2"],
                   help="distribution[:zipf_factor] specs to profile")
    p.add_argument("--tuples", type=int, default=200_000,
                   help="tuples per profiled workload")
    p.add_argument("--partitions", type=int, default=64,
                   help="fan-out for --mode (ignored when planning)")
    p.add_argument("--mode", default=None,
                   help="explain against this request mode (e.g. "
                        "PAD/RID); omit to also plan fan-out/mode")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "trace",
        help="traced service run: span log + critical-path summary",
    )
    p.add_argument("--requests", type=int, default=64,
                   help="synthetic requests to submit (open loop)")
    p.add_argument("--min-tuples", type=int, default=256)
    p.add_argument("--max-tuples", type=int, default=4096)
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--batch", type=int, default=64,
                   help="max requests coalesced per kernel invocation")
    p.add_argument("--naive", action="store_true",
                   help="one-request-at-a-time dispatch (baseline)")
    p.add_argument("--capacity", type=int, default=65536,
                   help="span ring-buffer capacity (oldest evicted)")
    p.add_argument("--trace-out", default="trace.jsonl",
                   help="span log (JSONL) path; '' skips the dump")
    p.add_argument("--prometheus-out", default=None,
                   help="also write a Prometheus exposition here")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "spill",
        help="out-of-core partitioning: ingest to disk, spill, verify",
    )
    p.add_argument("--tuples", type=int, default=1_000_000)
    p.add_argument("--partitions", type=int, default=256)
    p.add_argument("--mode", default="HIST/RID", help="e.g. HIST/VRID")
    p.add_argument("--distribution", default="random")
    p.add_argument("--chunk-tuples", type=int, default=1 << 17,
                   help="store ingest granularity (tuples per chunk)")
    p.add_argument("--memory-budget", type=int, default=4 << 20,
                   help="max bytes of chunk output buffered in memory")
    p.add_argument("--backend", choices=["fpga", "cpu"], default="fpga")
    p.add_argument("--dir", default=None,
                   help="store/run directory (default: fresh temp dir)")
    p.add_argument("--keep", action="store_true",
                   help="keep the store and run directories on disk")
    p.add_argument("--check-identity", action="store_true",
                   help="also partition in memory and compare outputs")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "cluster",
        help="sharded partition cluster: serve a workload",
    )
    p.add_argument("action", choices=["serve"],
                   help="route requests through a shard cluster")
    p.add_argument("--shards", type=int, default=3)
    p.add_argument("--requests", type=int, default=8)
    p.add_argument("--tuples", type=int, default=100_000,
                   help="tuples per request")
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--mode", default="HIST/RID", help="e.g. PAD/VRID")
    p.add_argument("--distribution", default="random")
    p.add_argument("--replicas", type=int, default=2,
                   help="replica-set size for hot partitions")
    p.add_argument("--handoff-tuples", type=int, default=0,
                   help="per-shard slice budget; above it the slice is "
                        "spill-handed to a peer (0 = never)")
    p.add_argument("--kill-shard", type=int, default=None,
                   help="kill this shard index halfway through 'serve'")
    p.add_argument("--check-identity", action="store_true",
                   help="verify every response against single-node output")
    p.add_argument("--prometheus-out", default=None,
                   help="write the per-shard Prometheus exposition here")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "pipeline",
        help="fused vs staged join+group-by pipeline (identity-checked)",
    )
    p.add_argument("--workload", choices=sorted(WORKLOAD_SPECS), default="A")
    p.add_argument("--scale", type=int, default=64,
                   help="shrink the paper workload by this factor")
    p.add_argument("--partitions", type=int, default=512)
    p.add_argument("--zipf", type=float, default=1.05,
                   help="Zipf factor for the probe stream (0 = uniform)")
    p.add_argument("--aggregate", default="sum",
                   choices=["sum", "count", "min", "max", "mean"])
    p.add_argument("--engine", choices=["serial", "thread", "parallel"],
                   default=None, help="morsel execution engine")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser(
        "gateway",
        help="async streaming gateway: network front-end for "
             "unbounded partition streams",
    )
    p.add_argument("action", choices=["serve", "bench"],
                   help="serve: run the TCP front-end until SIGTERM "
                        "drains it; bench: in-process server + "
                        "concurrent client streams (CI smoke)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="listen port (0 = pick a free one and print it)")
    p.add_argument("--streams", type=int, default=4,
                   help="concurrent client streams for 'bench'")
    p.add_argument("--tuples", type=int, default=131072,
                   help="tuples per bench stream")
    p.add_argument("--partitions", type=int, default=64)
    p.add_argument("--mode", default="HIST/RID", help="e.g. PAD/VRID")
    p.add_argument("--distribution", default="zipf")
    p.add_argument("--zipf", type=float, default=1.1,
                   help="Zipf factor for --distribution zipf")
    p.add_argument("--chunk-tuples", type=int, default=8192,
                   help="stream chunk size in tuples")
    p.add_argument("--credits", type=int, default=4,
                   help="per-stream flow-control window, in chunks")
    p.add_argument("--queue", type=int, default=1024,
                   help="backend admission-queue bound")
    p.add_argument("--cluster", type=int, default=0,
                   help="back the gateway with this many shards "
                        "(0 = single partition service)")
    p.add_argument("--kill-stream", type=int, default=None,
                   help="abort this bench stream's connection halfway "
                        "through (server-cleanup smoke)")
    p.add_argument("--check-identity", action="store_true",
                   help="verify every surviving bench stream against "
                        "an offline partition() (exit 1 on mismatch)")
    p.add_argument("--arrival", default="closed",
                   choices=["closed", "poisson", "burst", "diurnal",
                            "ramp"],
                   help="bench pacing: closed loop, or open-loop "
                        "arrival pattern for chunk sends")
    p.add_argument("--rate", type=float, default=64.0,
                   help="open-loop mean chunk rate per stream "
                        "(chunks/s)")
    p.add_argument("--on-overflow", default="hist",
                   choices=["raise", "hist"],
                   help="PAD overflow policy for bench streams")
    p.add_argument("--optimize", action="store_true",
                   help="feed per-stream ingest sketches to the "
                        "adaptive optimizer mid-stream")
    p.add_argument("--prometheus-out", default=None,
                   help="write the gateway Prometheus exposition here")
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("simulate", help="cycle-level circuit run")
    p.add_argument("--tuples", type=int, default=2048)
    p.add_argument("--partitions", type=int, default=16)
    p.add_argument("--mode", default="PAD/RID")
    p.add_argument("--distribution", default="random")
    p.add_argument("--bandwidth", type=float, default=0.0,
                   help="QPI GB/s; 0 = unthrottled")
    p.add_argument("--fast-forward", action="store_true",
                   help="event-driven fast path (identical counters)")
    p.add_argument("--seed", type=int, default=0)

    return parser


_COMMANDS = {
    "list": cmd_list,
    "experiment": cmd_experiment,
    "validate": cmd_validate,
    "partition": cmd_partition,
    "join": cmd_join,
    "serve": cmd_serve,
    "optimize": cmd_optimize,
    "trace": cmd_trace,
    "spill": cmd_spill,
    "cluster": cmd_cluster,
    "gateway": cmd_gateway,
    "pipeline": cmd_pipeline,
    "simulate": cmd_simulate,
    "report": cmd_report,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
