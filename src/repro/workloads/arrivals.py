"""Arrival-pattern generators for open-loop load (ROADMAP item 5).

Closed-loop benchmarks (send, wait, send) measure the system at its
own pace and hide queueing; production traffic does not wait.  These
generators produce deterministic *arrival timestamps* — monotonically
non-decreasing offsets in seconds from stream start — for open-loop
drivers (``repro gateway bench``; the stack benchmark's
``gateway.open_p50_ms``/``open_p99_ms``, ``benchmarks/stack/README.md``):
the driver fires each request at its scheduled instant regardless of
how the last one fared, so admission backpressure and latency tails
become visible.

Four shapes cover the scenarios the service layer must survive:

* :func:`poisson_arrivals` — memoryless steady state, the baseline;
* :func:`burst_arrivals` — whole batches landing at once with quiet
  gaps between them (cache stampedes, cron fan-out);
* :func:`diurnal_arrivals` — a sinusoidally modulated rate (the
  day/night cycle, compressed to a configurable period);
* :func:`ramp_arrivals` — a linear rate sweep from cold to peak (load
  tests, gradual rollout).

All are seeded and dependency-free (NumPy only).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "ArrivalPattern",
    "burst_arrivals",
    "diurnal_arrivals",
    "generate_arrivals",
    "poisson_arrivals",
    "ramp_arrivals",
]


class ArrivalPattern(str, enum.Enum):
    """Named arrival shapes (CLI / sweep-grid spelling)."""

    POISSON = "poisson"
    BURST = "burst"
    DIURNAL = "diurnal"
    RAMP = "ramp"


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(f"{name} must be > 0, got {value}")


def poisson_arrivals(
    num_events: int, rate: float, seed: int = 0
) -> np.ndarray:
    """Memoryless arrivals at ``rate`` events/second.

    Returns ``num_events`` non-decreasing offsets (float64 seconds).
    """
    _check_positive("rate", rate)
    if num_events <= 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(1.0 / rate, size=num_events)
    return np.cumsum(gaps)


def burst_arrivals(
    num_events: int,
    rate: float,
    burst_size: int = 32,
    duty_cycle: float = 0.1,
    seed: int = 0,
) -> np.ndarray:
    """Bursty arrivals: ``burst_size`` events packed into the first
    ``duty_cycle`` fraction of each period, then silence.

    The *average* rate stays ``rate`` (each period lasts
    ``burst_size / rate`` seconds), so burst and Poisson runs of equal
    length are directly comparable — the burst run simply concentrates
    the same offered load into short salvos that slam the admission
    queue.
    """
    _check_positive("rate", rate)
    if burst_size < 1:
        raise ConfigurationError(
            f"burst_size must be >= 1, got {burst_size}"
        )
    if not 0.0 < duty_cycle <= 1.0:
        raise ConfigurationError(
            f"duty_cycle must be in (0, 1], got {duty_cycle}"
        )
    if num_events <= 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    period_s = burst_size / rate
    window_s = period_s * duty_cycle
    index = np.arange(num_events)
    period_of = index // burst_size
    # uniform jitter inside each burst window, sorted within the burst
    # so offsets stay non-decreasing
    jitter = rng.uniform(0.0, window_s, size=num_events)
    for start in range(0, num_events, burst_size):
        jitter[start:start + burst_size] = np.sort(
            jitter[start:start + burst_size]
        )
    return period_of * period_s + jitter


def diurnal_arrivals(
    num_events: int,
    mean_rate: float,
    period_s: float = 60.0,
    amplitude: float = 0.8,
    seed: int = 0,
) -> np.ndarray:
    """A day/night cycle: Poisson arrivals whose instantaneous rate is
    ``mean_rate * (1 + amplitude * sin(2*pi*t / period_s))``.

    ``amplitude`` in ``[0, 1)`` — at 0 this is plain Poisson; near 1
    the trough almost silences the stream while the crest doubles it.
    Sampled by time-rescaling: unit-rate exponential increments are
    inverted through the integrated rate function step by step.
    """
    _check_positive("mean_rate", mean_rate)
    _check_positive("period_s", period_s)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigurationError(
            f"amplitude must be in [0, 1), got {amplitude}"
        )
    if num_events <= 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    increments = rng.exponential(1.0, size=num_events)
    out = np.empty(num_events, dtype=np.float64)
    t = 0.0
    omega = 2.0 * np.pi / period_s
    max_step = period_s / 64.0
    for i, target in enumerate(increments):
        # advance t until the integrated rate accrues `target` more
        # expected events; fixed coarse steps keep this dependency-free
        # and exact enough for load generation.  Each iteration either
        # finishes the event inside one step or burns a whole step's
        # accrual (bounded below by mean_rate * (1 - amplitude) *
        # max_step > 0), so the loop always terminates — no
        # remaining-driven step sizes that can underflow to zero.
        remaining = target
        while remaining > 0.0:
            instantaneous = mean_rate * (1.0 + amplitude * np.sin(omega * t))
            finish = remaining / instantaneous
            if finish <= max_step:
                t += finish
                break
            remaining -= instantaneous * max_step
            t += max_step
        out[i] = t
    return out


def ramp_arrivals(
    num_events: int,
    start_rate: float,
    end_rate: float,
    seed: int = 0,
) -> np.ndarray:
    """A linear rate sweep: event ``i``'s inter-arrival gap is drawn at
    the rate interpolated between ``start_rate`` and ``end_rate``
    across the event sequence — a cold-to-peak (or peak-to-cold) ramp.
    """
    _check_positive("start_rate", start_rate)
    _check_positive("end_rate", end_rate)
    if num_events <= 0:
        return np.empty(0, dtype=np.float64)
    rng = np.random.default_rng(seed)
    fractions = (
        np.arange(num_events) / max(1, num_events - 1)
        if num_events > 1
        else np.zeros(1)
    )
    rates = start_rate + (end_rate - start_rate) * fractions
    gaps = rng.exponential(1.0, size=num_events) / rates
    return np.cumsum(gaps)


def generate_arrivals(
    pattern: "ArrivalPattern | str",
    num_events: int,
    rate: float,
    seed: int = 0,
    **kwargs,
) -> np.ndarray:
    """Dispatch by :class:`ArrivalPattern` name (CLI entry point).

    ``rate`` is the mean rate for every pattern; pattern-specific knobs
    (``burst_size``, ``duty_cycle``, ``period_s``, ``amplitude``,
    ``end_rate``) pass through ``kwargs``.
    """
    pattern = ArrivalPattern(pattern)
    if pattern is ArrivalPattern.POISSON:
        return poisson_arrivals(num_events, rate, seed=seed, **kwargs)
    if pattern is ArrivalPattern.BURST:
        return burst_arrivals(num_events, rate, seed=seed, **kwargs)
    if pattern is ArrivalPattern.DIURNAL:
        return diurnal_arrivals(num_events, rate, seed=seed, **kwargs)
    end_rate = kwargs.pop("end_rate", rate * 4.0)
    return ramp_arrivals(num_events, rate, end_rate, seed=seed, **kwargs)
