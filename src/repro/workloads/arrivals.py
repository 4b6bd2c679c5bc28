"""Arrival timestamps for open-loop load.

Closed-loop benchmarks (send, wait, send) measure the system at its
own pace and hide queueing; production traffic does not wait.
:func:`poisson_arrivals` produces deterministic *arrival timestamps* —
monotonically non-decreasing offsets in seconds from stream start —
for open-loop load generators (the stack benchmark's
``gateway.open_p50_ms``/``open_p99_ms``, ``benchmarks/stack/README.md``):
the generator fires each request at its scheduled instant regardless of
how the last one fared, so admission backpressure and latency tails
become visible.  Seeded and dependency-free (NumPy only).
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigurationError

__all__ = ["poisson_arrivals"]


def poisson_arrivals(
    num_events: int, rate: float, seed: int = 0
) -> np.ndarray:
    """Memoryless arrivals at ``rate`` events/second.

    Returns ``num_events`` non-decreasing offsets (float64 seconds).
    """
    if not rate > 0:
        raise ConfigurationError(f"rate must be > 0, got {rate}")
    if num_events <= 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_events)
    return np.cumsum(gaps)
