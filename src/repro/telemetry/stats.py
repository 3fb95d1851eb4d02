"""Summary statistics over event logs: the numbers in Tables 2-3 and the
per-process averages behind Figs 3-6.

All statistics follow the paper's methodology: "All statistics are
obtained by averaging over all the processes and events in the
experiment" (§4.1.2).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.errors import EmptyLogError, ReproError
from repro.telemetry.events import TRANSPORT_KINDS, EventKind, EventLog


@dataclass(frozen=True)
class Summary:
    """Mean/std/min/max/count plus p50/p95/p99 percentiles of a sample.

    Percentiles use linear interpolation (``numpy.percentile`` defaults),
    so they are exact for the retained sample set.
    """

    count: int
    mean: float
    std: float
    min: float
    max: float
    total: float
    p50: float = 0.0
    p95: float = 0.0
    p99: float = 0.0

    @classmethod
    def of(cls, values: Iterable[float]) -> "Summary":
        if not isinstance(values, np.ndarray):
            values = list(values)
        arr = np.asarray(values, dtype=float)
        if arr.size == 0:
            return cls(count=0, mean=0.0, std=0.0, min=0.0, max=0.0, total=0.0)
        p50, p95, p99 = np.percentile(arr, (50, 95, 99))
        return cls(
            count=int(arr.size),
            mean=float(arr.mean()),
            std=float(arr.std(ddof=0)),
            min=float(arr.min()),
            max=float(arr.max()),
            total=float(arr.sum()),
            p50=float(p50),
            p95=float(p95),
            p99=float(p99),
        )

    def as_dict(self) -> dict[str, float]:
        """Plain-dict form for JSON output (field order preserved)."""
        return {
            "count": self.count,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
            "total": self.total,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }


def iteration_time_summary(log: EventLog, component: str, kind: EventKind) -> Summary:
    """Mean/std of iteration durations for a component (Table 3)."""
    return Summary.of(log._values("duration", component=component, kind=kind))


def event_counts(log: EventLog, component: str) -> dict[str, int]:
    """Timestep and data-transport event counts for a component (Table 2)."""
    comp = log.filter(component=component)
    timesteps = comp.count(kinds=(EventKind.COMPUTE, EventKind.TRAIN))
    transport = comp.count(kinds=TRANSPORT_KINDS)
    return {"timestep": timesteps, "data_transport": transport}


def mean_throughput(log: EventLog, kind: EventKind, component: str | None = None) -> float:
    """Per-process mean throughput (bytes/s), averaged over all events.

    The paper averages per-event throughputs over all processes and events
    rather than dividing total bytes by total time.
    """
    if kind not in TRANSPORT_KINDS:
        raise ReproError(f"{kind} is not a transport kind")
    nbytes = log._values("nbytes", component=component, kind=kind)
    seconds = log._values("duration", component=component, kind=kind)
    moving = seconds > 0
    if not moving.any():
        return 0.0
    return float(np.mean(nbytes[moving] / seconds[moving]))


def mean_transport_time(log: EventLog, kind: EventKind, component: str | None = None) -> float:
    """Mean per-message transport time (Fig 4's read/write bars)."""
    if kind not in TRANSPORT_KINDS:
        raise ReproError(f"{kind} is not a transport kind")
    durations = log._values("duration", component=component, kind=kind)
    if not durations.size:
        return 0.0
    return float(np.mean(durations))


def runtime_per_iteration(log: EventLog, component: str, iterations: int) -> float:
    """Total component execution time / iterations (Fig 6's metric).

    "execution time per iteration is obtained by computing the total
    execution time of the training component divided by the number of
    iterations. Hence, this includes both compute and data transport
    times." (§4.2)
    """
    if iterations <= 0:
        raise ReproError(f"iterations must be positive, got {iterations}")
    try:
        return log.makespan(component=component) / iterations
    except EmptyLogError:
        raise ReproError(
            f"no events recorded for component {component!r}; "
            f"known components: {log.components()}"
        ) from None
