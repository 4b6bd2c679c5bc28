"""Extension — cycle-level circuit vs fast-forward timing replay.

Wall-clock of the cycle-level circuit with ``fast_forward=True``
(event-driven timing replay) against the cycle-by-cycle reference,
asserting the :class:`CircuitStats` are exactly equal before reporting
the speedup.
"""

import time
from typing import Optional

import numpy as np

from repro.bench import ExperimentTable, shape_check
from repro.core.circuit import PartitionerCircuit
from repro.core.modes import LayoutMode, PartitionerConfig

FF_EXPERIMENT = "Fast-forward"

#: full-size default (acceptance criteria size)
DEFAULT_LINES = 1 << 16

#: quick-mode size for the pytest entry point
QUICK_LINES = 1 << 10


def _make_keys(n: int, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2**32, size=n, dtype=np.uint32)


def fast_forward_table(
    lines: Optional[int] = None,
    num_partitions: int = 256,
    quick: bool = False,
) -> ExperimentTable:
    """Cycle-by-cycle vs fast-forward circuit run (identical stats)."""
    if lines is None:
        lines = QUICK_LINES if quick else DEFAULT_LINES
    config = PartitionerConfig(
        num_partitions=num_partitions, layout_mode=LayoutMode.VRID
    )
    n = lines * config.tuples_per_line
    keys = _make_keys(n, seed=1)

    circuit = PartitionerCircuit(config)
    start = time.perf_counter()
    reference = circuit.run(keys, None)
    reference_seconds = time.perf_counter() - start

    start = time.perf_counter()
    fast = circuit.run(keys, None, fast_forward=True)
    fast_seconds = time.perf_counter() - start

    shape_check(
        fast.stats == reference.stats,
        FF_EXPERIMENT,
        "fast-forward CircuitStats must equal the cycle-level reference",
    )
    rows = [
        ["cycle-level", reference_seconds, reference.stats.cycles, 1.0],
        [
            "fast-forward",
            fast_seconds,
            fast.stats.cycles,
            reference_seconds / fast_seconds,
        ],
    ]
    return ExperimentTable(
        experiment_id=FF_EXPERIMENT,
        title=f"circuit simulation, {lines:,} input lines "
        f"({n:,} tuples, {num_partitions} partitions)",
        headers=["simulator", "seconds", "cycles", "speedup"],
        rows=rows,
        note="both runs produce identical CircuitStats (asserted above).",
    )


def test_fast_forward_quick(benchmark):
    """Benchmark-harness entry: quick-size fast-forward table."""
    table = benchmark.pedantic(
        lambda: fast_forward_table(quick=True), rounds=1, iterations=1
    )
    table.emit()
    shape_check(
        float(table.rows[1][3]) > 1.0,
        FF_EXPERIMENT,
        "fast-forward must be faster than the cycle-level loop",
    )
