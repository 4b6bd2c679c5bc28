#!/usr/bin/env python3
"""The repo's stack benchmark: six workloads, one command.

    python3 benchmarks/stack/run.py --workload NAME --seed S \\
        [--seconds N] [--trace 0|1] [--smoke] [--out DIR]

Without ``--workload`` every workload runs, each in a fresh
interpreter, and the per-workload artifacts are merged into
``DIR/stack.json`` (what ``compare.py`` reads).

A run generates its inputs from the seed, measures for ``--seconds``,
verifies every output against one offline ``FpgaPartitioner.partition``
call, prints every metric by name with its unit, and ends with one JSON
line ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
(derived from the spans of ``trace.jsonl``) with ``--trace 1``.
See ``README.md`` beside this file.
"""

import time

_T0 = time.perf_counter()  # setup_s counts from here: imports included

import argparse
import itertools
import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD_DIR = ROOT / ".bench_build"  # everything a run writes, unless --out says otherwise
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: setup_s is the median of this many set-ups: this process's own and
#: ``--setup-only`` children, each a fresh interpreter
SETUP_REPEATS = 3


def bootstrap() -> None:
    """Measure this checkout's sources; keep every write inside it."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"stack benchmark: no program to measure under {ROOT / 'src'}")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    os.environ["PYTHONPATH"] = str(ROOT / "src")
    os.environ["REPRO_KERNELS_CACHE"] = str(BUILD_DIR / "kernels")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")
    parser.add_argument("--smoke", action="store_true",
                        help="inputs / 64, one repetition per lane")
    parser.add_argument("--runs", type=int, default=1,
                        help="without --workload: repeat every workload this often")
    parser.add_argument("--out", type=pathlib.Path,
                        default=BUILD_DIR / "stack-out")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ----------------------------------------------------------------------
# One workload, this interpreter
# ----------------------------------------------------------------------

def measure(workload, trace, args):
    """Warm up, then the two timed lanes; returns (throughput, operation)."""
    from harness import cpu_seconds, run_lane

    pids = workload.child_pids()
    seconds = args.seconds / 2 if args.trace else args.seconds
    share = workload.throughput_share
    same_lane = share == 1.0
    cap = 1 if args.smoke else None

    def spanned(rep, name):
        # in a traced run half the repetitions run with the spans inside
        # them switched off: the difference is the tracing overhead.
        # On/off/off/on, because consecutive repetitions alternate
        # between a fast and a slow allocator state on the bulk paths.
        traced = itertools.cycle((True, False, False, True))

        def wrapped():
            on = next(traced)
            with trace.span(name, traced=on) as span:
                cpu = cpu_seconds(pids)
                if on:
                    result = rep()
                else:
                    with trace.paused():
                        result = rep()
                span.set(tuples=result.tuples, cpu_s=cpu_seconds(pids) - cpu)
            return result

        return wrapped

    warm_failed = 0
    if not args.smoke:
        with trace.paused():
            # by time, not by count: the bulk paths run ~40% slower for
            # their first dozen calls in a fresh process
            warm = [run_lane(workload.throughput_rep, 0.15 * seconds, None, pids)]
            if not same_lane:
                warm.append(run_lane(workload.operation_rep, 0.05 * seconds, None, pids))
        warm_failed = sum(lane.failed for lane in warm)
    budget = 0.0 if args.smoke else seconds
    throughput = run_lane(
        spanned(workload.throughput_rep, "bench.throughput_rep"),
        budget * share, cap, pids,
    )
    operation = throughput if same_lane else run_lane(
        spanned(workload.operation_rep, "bench.operation_rep"),
        budget * (1.0 - share), cap, pids,
    )
    throughput.failed += warm_failed
    throughput.attempted += warm_failed
    return throughput, operation


def setup_only_child(args) -> float:
    """One more set-up of this workload in a fresh interpreter."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True)
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


def run_workload(args) -> int:
    bootstrap()
    # a terminated run still stops its gateway children and removes its scratch dir
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    import repro.kernels as kernels
    from harness import Scratch, Trace, peak_rss_mib, summary
    from workloads import THREADS, WORKLOADS

    scratch = Scratch(args.workload)
    trace = Trace(args.workload, enabled=bool(args.trace) and not args.setup_only)
    workload = WORKLOADS[args.workload](args.seed, args.smoke, scratch, trace)
    problems, lanes, per_layer, reasons, rss = [], None, {}, {}, 0.0
    try:
        with trace.span("bench.setup"):
            workload.setup()
        setup_samples = [time.perf_counter() - _T0]
        if not args.setup_only:
            workload.prepare_oracle()
            lanes = measure(workload, trace, args)
            rss = peak_rss_mib(workload.child_pids())
            if args.trace:
                import layers

                reasons = layers.probe(workload, trace)
                per_layer = layers.derive(trace)
    finally:
        problems += workload.teardown()
        scratch.cleanup()
    if scratch.path.exists():
        problems.append(f"scratch dir {scratch.path} survived cleanup")
    if args.setup_only:
        print(json.dumps({"setup_s": setup_samples[0]}))
        return 0

    setup_samples += [setup_only_child(args) for _ in range(SETUP_REPEATS - 1)]
    throughput, operation = lanes
    end_to_end = {
        "setup_s": summary(setup_samples, "s"),
        "throughput_mtps": summary(throughput.mtps, "Mtuples/s"),
        "op_p50_ms": summary(
            operation.pooled_op_ms, "ms",
            per_rep=[statistics.median(rep) for rep in operation.op_ms],
        ),
        "peak_rss_mib": summary([rss], "MiB"),
    }
    counted = [throughput] if operation is throughput else [throughput, operation]
    attempted = sum(lane.attempted for lane in counted)
    failed = sum(lane.failed for lane in counted)
    for problem in problems:
        print(f"hygiene: {problem}", file=sys.stderr)
    correct = failed == 0 and not problems and attempted > 0
    details = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in workload.details(throughput, operation).items()
    }
    details["cpu_s_per_mtuple"] = {
        "value": statistics.median(throughput.cpu_s_per_mtuple), "unit": "s/Mtuple",
    }
    details["failed_frac"] = {"value": failed / max(attempted, 1), "unit": "fraction"}

    out_dir = args.out / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        trace.write(out_dir / "trace.jsonl")
    artifact = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "smoke": args.smoke,
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "kernels": kernels.backend_name(),
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "hygiene": problems,
        "end_to_end": end_to_end,
        "details": details,
        "per_layer": per_layer,
        "null_reasons": reasons,
    }
    name = "result.traced.json" if args.trace else "result.json"
    (out_dir / name).write_text(json.dumps(artifact, indent=1))

    print_table(artifact)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": driver_metrics(artifact),
    }))
    return 0 if correct else 1


def driver_metrics(artifact: dict) -> dict:
    """The metrics of ``BENCHMARK.json`` for this run's trace mode.

    Every value is a number: a per-layer metric no probe of this
    workload feeds reads 0 here and ``null`` (with the reason) in the
    artifact.
    """
    if not artifact["traced"]:
        return {
            metric["name"]: {
                "value": artifact["end_to_end"][metric["name"]]["value"],
                "unit": metric["unit"],
            }
            for metric in SPEC["end_to_end"]
        }
    return {
        metric["name"]: {
            "value": artifact["per_layer"].get(metric["name"]) or 0.0,
            "unit": metric["unit"],
        }
        for metric in SPEC["per_layer"]
    }


def print_table(artifact: dict) -> None:
    print(f"== {artifact['workload']}  seed={artifact['seed']} "
          f"kernels={artifact['kernels']} nproc={artifact['nproc']}"
          f"{' smoke' if artifact['smoke'] else ''}"
          f"{' traced' if artifact['traced'] else ''}")
    print(f"{'metric':<36}{'median':>14} {'unit':<11}{'q1':>12}{'q3':>12}{'n':>6}")
    for name, row in artifact["end_to_end"].items():
        print(f"{name:<36}{row['value']:>14.4f} {row['unit']:<11}"
              f"{row['q1']:>12.4f}{row['q3']:>12.4f}{row['n']:>6}")
    for name, row in artifact["details"].items():
        print(f"{name:<36}{row['value']:>14.4f} {row['unit']:<11}")
    units = {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    for name, value in artifact["per_layer"].items():
        if value is None:
            continue
        print(f"{name:<36}{value:>14.4f} {units.get(name, ''):<11}")
    for name, reason in artifact["null_reasons"].items():
        print(f"{name:<36}{'null':>14} ({reason})")
    print(f"verified against the offline oracle: attempted={artifact['attempted']} "
          f"failed={artifact['failed']} correct={artifact['correct']}")


# ----------------------------------------------------------------------
# Every workload, one fresh interpreter each
# ----------------------------------------------------------------------

def run_all(args) -> int:
    bootstrap()
    merged = {spec["name"]: [] for spec in SPEC["workloads"]}
    status = 0
    result_name = "result.traced.json" if args.trace else "result.json"
    for _ in range(args.runs):
        for name in merged:
            command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                       "--seed", str(args.seed), "--seconds", str(args.seconds),
                       "--trace", str(args.trace), "--out", str(args.out)]
            if args.smoke:
                command.append("--smoke")
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
            print("\n".join(done.stdout.strip().splitlines()[:-1]), flush=True)
            status = status or done.returncode
            if done.returncode in (0, 1):  # measured; 1 = an output diverged
                merged[name].append(json.loads((args.out / name / result_name).read_text()))
    stack = args.out / ("stack.traced.json" if args.trace else "stack.json")
    stack.write_text(json.dumps({"workloads": merged}, indent=1))
    print(f"wrote {stack}")
    runs = [run for runs in merged.values() for run in runs]
    print(json.dumps({
        "correct": status == 0 and all(len(r) == args.runs for r in merged.values()),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": {
            f"{name}/{metric}": row
            for name, runs in merged.items() if runs
            for metric, row in driver_metrics(runs[-1]).items()
        },
    }))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload is None:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
