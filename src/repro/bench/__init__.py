"""Benchmark-harness support: table formatting and shape checks.

The ``benchmarks/`` directory reproduces every table and figure of the
paper's evaluation; this package provides the shared plumbing — ASCII
table rendering, paper-vs-measured comparison rows, and qualitative
shape assertions (who wins, monotonicity, crossovers).
"""

from repro.bench.reporting import (
    ExperimentTable,
    format_table,
    monotonically_decreasing,
    monotonically_increasing,
    relative_error,
    shape_check,
)

__all__ = [
    "ExperimentTable",
    "format_table",
    "shape_check",
    "relative_error",
    "monotonically_increasing",
    "monotonically_decreasing",
]
