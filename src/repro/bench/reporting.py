"""Reporting helpers for the per-figure benchmarks.

Each benchmark reproduces one table or figure.  Its output is an
:class:`ExperimentTable` — the same rows/series the paper plots — which
renders as an aligned ASCII table and can be asserted against *shape*
expectations (who wins, monotonicity, crossovers) without pinning
absolute numbers the simulation cannot promise.
"""

from __future__ import annotations

import dataclasses
from typing import List, Optional, Sequence

from repro.errors import ConfigurationError


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[object]],
    note: Optional[str] = None,
) -> str:
    """Render an aligned ASCII table."""
    cells = [[_fmt(h) for h in headers]] + [
        [_fmt(v) for v in row] for row in rows
    ]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]
    lines = [title, "=" * len(title)]
    header_line = "  ".join(h.ljust(w) for h, w in zip(cells[0], widths))
    lines.append(header_line)
    lines.append("-" * len(header_line))
    for row in cells[1:]:
        lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
    if note:
        lines.append("")
        lines.append(note)
    return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.4f}"
    return str(value)


@dataclasses.dataclass
class ExperimentTable:
    """One reproduced table/figure, ready to print and to check."""

    experiment_id: str          # e.g. "Figure 9"
    title: str
    headers: List[str]
    rows: List[List[object]]
    note: Optional[str] = None

    def render(self) -> str:
        """The aligned ASCII rendering of the table."""
        return format_table(
            f"[{self.experiment_id}] {self.title}",
            self.headers,
            self.rows,
            self.note,
        )

    def emit(self) -> None:
        """Print the table (pytest shows it with ``-s``; pytest-benchmark
        runs keep it in the captured output)."""
        print()
        print(self.render())

    def column(self, header: str) -> List[object]:
        """Values of one column, by header name."""
        if header not in self.headers:
            raise ConfigurationError(
                f"no column {header!r} in {self.experiment_id}; "
                f"have {self.headers}"
            )
        index = self.headers.index(header)
        return [row[index] for row in self.rows]


def shape_check(
    condition: bool, experiment_id: str, description: str
) -> None:
    """Assert a qualitative property of a reproduced figure.

    Raises AssertionError with a message naming the experiment, so a
    failed shape check reads like a reproduction report.
    """
    assert condition, f"{experiment_id}: shape expectation violated — {description}"


def relative_error(model: float, measured: float) -> float:
    """``|model - measured| / |measured|``."""
    if measured == 0:
        raise ConfigurationError("measured value must be nonzero")
    return abs(model - measured) / abs(measured)


def monotonically_increasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True when the sequence never drops by more than ``tolerance``."""
    return all(
        b >= a * (1.0 - tolerance) for a, b in zip(values, values[1:])
    )


def monotonically_decreasing(values: Sequence[float], tolerance: float = 0.0) -> bool:
    """True when the sequence never rises by more than ``tolerance``."""
    return all(
        b <= a * (1.0 + tolerance) for a, b in zip(values, values[1:])
    )
