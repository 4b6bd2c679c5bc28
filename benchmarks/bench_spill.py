"""Out-of-core spill benchmark — bounded memory vs in-memory partitioning.

Streams one relation through the :class:`~repro.storage.spill.
SpillPartitioner` across a log2 ladder of memory budgets and compares
each run against a single in-memory
:class:`~repro.core.partitioner.FpgaPartitioner` call on the same
keys: throughput (tuples/s of the partitioning phase), peak *traced*
Python allocation (``tracemalloc`` — the honest bounded-memory claim,
since the budget caps the spiller's partition buffers), flush count
and byte traffic.  Byte identity is asserted per budget; the speed
numbers only count because the outputs are exactly equal.

The shape this artifact pins down: peak traced memory **scales with
the budget, not the relation**, while throughput degrades gracefully
as the budget shrinks (more, smaller flushes).

Run as a script to write the standard JSON artifact::

    PYTHONPATH=src python benchmarks/bench_spill.py \
        --output BENCH_spill.json

or quick sizes for smoke testing with ``--quick``.
"""

import argparse
import time
import tracemalloc
from typing import Optional, Sequence

import numpy as np

from repro.analysis.verify import outputs_identical
from repro.bench import ExperimentTable, shape_check, write_json_artifact
from repro.core.modes import PartitionerConfig
from repro.core.partitioner import FpgaPartitioner
from repro.storage import RelationStore, SpillPartitioner

EXPERIMENT = "Spill"

DEFAULT_TUPLES = 2_000_000
DEFAULT_PARTITIONS = 256
DEFAULT_CHUNK_TUPLES = 1 << 17
#: log2 budget ladder, bytes — 256 KiB up to 16 MiB
DEFAULT_BUDGETS = [1 << b for b in range(18, 25, 2)]

QUICK_TUPLES = 200_000
QUICK_CHUNK_TUPLES = 1 << 14
QUICK_BUDGETS = [1 << 16, 1 << 20]


def _traced(fn):
    """(result, seconds, peak_traced_bytes) of one call."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    elapsed = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, elapsed, peak


def spill_table(
    tmp_dir,
    tuples: Optional[int] = None,
    num_partitions: int = DEFAULT_PARTITIONS,
    budgets: Optional[Sequence[int]] = None,
    chunk_tuples: Optional[int] = None,
    quick: bool = False,
    seed: int = 0,
) -> ExperimentTable:
    """Streaming vs in-memory across the memory-budget ladder."""
    import pathlib

    tmp_dir = pathlib.Path(tmp_dir)
    n = tuples or (QUICK_TUPLES if quick else DEFAULT_TUPLES)
    budgets = list(budgets or (QUICK_BUDGETS if quick else DEFAULT_BUDGETS))
    chunk = chunk_tuples or (
        QUICK_CHUNK_TUPLES if quick else DEFAULT_CHUNK_TUPLES
    )
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, 2**32, size=n, dtype=np.uint64).astype(np.uint32)
    config = PartitionerConfig(num_partitions=num_partitions)

    mem, mem_s, mem_peak = _traced(
        lambda: FpgaPartitioner(config).partition(keys)
    )
    rows = [[
        "in-memory", n, "-", "-", n / mem_s, 1.0, mem_peak / 2**20, "-",
    ]]

    store = RelationStore.ingest(
        keys, tmp_dir / "store", chunk_tuples=chunk
    ).seal()
    for budget in budgets:
        run_dir = tmp_dir / f"run-{budget}"
        spiller = SpillPartitioner(
            config, backend="fpga", max_bytes_in_memory=budget
        )
        spill, spill_s, spill_peak = _traced(
            lambda: spiller.run(store, run_dir)
        )
        identical = bool(outputs_identical(spill.to_output(), mem))
        rows.append([
            f"spill {budget >> 10} KiB",
            n,
            store.num_chunks,
            spill.bytes_written,
            n / spill_s,
            (n / spill_s) / (n / mem_s),
            spill_peak / 2**20,
            "yes" if identical else "NO",
        ])
        spill.cleanup()
    store.delete()

    return ExperimentTable(
        experiment_id=EXPERIMENT,
        title=(
            f"{n:,} tuples, fan-out {num_partitions}: streaming "
            f"spill-to-disk vs one in-memory partition() call"
        ),
        headers=[
            "path", "tuples", "chunks", "bytes written", "tuples/s",
            "vs mem", "peak MiB", "identical",
        ],
        rows=rows,
        note=(
            "peak MiB is tracemalloc-traced Python allocation; the "
            "spill rows must stay bounded by the budget ladder, not "
            "the relation size, at byte-identical output"
        ),
    )


def write_artifact(
    path: str,
    tmp_dir,
    tuples: Optional[int] = None,
    quick: bool = False,
):
    """Measure and write the ``BENCH_spill.json`` artifact."""
    table = spill_table(tmp_dir, tuples=tuples, quick=quick)
    spill_rows = table.rows[1:]
    mem_row = table.rows[0]
    extra = {
        "schema": "repro-bench/1",
        "benchmark": "spill",
        "quick": quick,
        "tuples": int(mem_row[1]),
        "in_memory_tuples_per_s": float(mem_row[4]),
        "in_memory_peak_mib": float(mem_row[6]),
        "budgets_bytes": [
            int(row[0].split()[1]) << 10 for row in spill_rows
        ],
        "spill_tuples_per_s": [float(row[4]) for row in spill_rows],
        "spill_peak_mib": [float(row[6]) for row in spill_rows],
        "all_identical": all(row[7] == "yes" for row in spill_rows),
    }
    written = write_json_artifact(path, [table], extra=extra)
    return written, table


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Script entry point: print the table, write the JSON artifact."""
    import tempfile

    parser = argparse.ArgumentParser(
        description="out-of-core spill benchmark"
    )
    parser.add_argument("--tuples", type=int, default=None)
    parser.add_argument("--output", default="BENCH_spill.json")
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for smoke testing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="repro-bench-spill-") as tmp:
        written, table = write_artifact(
            args.output, tmp, tuples=args.tuples, quick=args.quick
        )
    print(table.render())
    print(f"\nwrote {written}")
    return 0


def test_spill_quick(benchmark, tmp_path):
    """Benchmark-harness entry: quick-size spill ladder."""
    table = benchmark.pedantic(
        lambda: spill_table(tmp_path, quick=True), rounds=1, iterations=1
    )
    table.emit()
    spill_rows = table.rows[1:]
    shape_check(
        all(row[7] == "yes" for row in spill_rows),
        EXPERIMENT,
        "spilled output must be byte-identical to in-memory",
    )
    smallest_budget_peak = spill_rows[0][6]
    in_memory_peak = table.rows[0][6]
    shape_check(
        smallest_budget_peak < in_memory_peak,
        EXPERIMENT,
        "bounded-budget spill must trace less peak memory than the "
        "in-memory run",
    )


if __name__ == "__main__":
    raise SystemExit(main())
