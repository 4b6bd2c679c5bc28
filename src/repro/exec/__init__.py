"""Parallel execution engine (morsel-driven operators + fast simulation).

This package is the scaling layer of the reproduction.  It contains:

* :mod:`repro.exec.morsels` — the chunk ("morsel") plan and the
  two-level prefix-sum merge between the two phases.  The phases
  themselves are plain :mod:`repro.kernels` calls
  (``hash_histogram``, ``stable_scatter``), shared by every execution
  backend.
* :mod:`repro.exec.engine` — :class:`ExecutionEngine`, which runs the
  morsel phases serially, on a thread pool, or on a process pool with
  shared-memory output buffers, and provides ordered task fan-out for
  the join's build+probe phase.
* :mod:`repro.exec.fast_forward` — the event-driven fast path of the
  cycle-level circuit simulator: steady-state cycles are computed
  analytically instead of being stepped one by one, with bit-identical
  :class:`~repro.core.circuit.CircuitStats`.

The engine's contract, enforced by ``tests/test_exec_engine.py``: for
any worker count and any backend, the partitioned output is
byte-identical to the sequential reference implementation.

See ``docs/EXECUTION.md`` for the model and its invariants.
"""

from repro.exec.engine import ExecutionEngine, resolve_engine
from repro.exec.morsels import (
    MorselStats,
    merge_histograms,
    plan_morsels,
)

__all__ = [
    "ExecutionEngine",
    "resolve_engine",
    "MorselStats",
    "plan_morsels",
    "merge_histograms",
]
