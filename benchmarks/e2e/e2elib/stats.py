"""Order statistics with the sample-count rule the benchmark reports by.

A percentile is only reported as a tail when at least
:data:`MIN_BEYOND` samples lie beyond it (choosing-metrics, section 1):
40 SUBMIT samples support p50 (20 beyond) but not p95 (2 beyond).
"""

from __future__ import annotations

import statistics
import time
from typing import Callable, Iterable, Sequence

#: Samples that must lie beyond a percentile for it to be reported.
MIN_BEYOND = 10


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (0..100) by linear interpolation."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {p}")
    rank = (len(data) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def supported(n: int, p: float) -> bool:
    """True when at least MIN_BEYOND of ``n`` samples lie beyond the ``p``-th percentile."""
    return n * (1.0 - p / 100.0) >= MIN_BEYOND


def latency_metric(seconds: Sequence[float], p: float) -> dict:
    """The ``p``-th percentile of durations, in ms, with the sample count
    behind it and whether that count supports the percentile."""
    return {
        "value": 1e3 * percentile(seconds, p), "unit": "ms", "better": "lower",
        "samples": len(seconds), "supported": supported(len(seconds), p),
    }


def seconds_per_call(call: Callable[[], object], n: int) -> float:
    """Mean seconds of ``call()`` over ``n`` back-to-back calls (micro-timings)."""
    start = time.perf_counter()
    for _ in range(n):
        call()
    return (time.perf_counter() - start) / n


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them.

    One sample has no spread: all three are that sample.
    """
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for one sample)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else float("inf")
