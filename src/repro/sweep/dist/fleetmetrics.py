"""Live fleet metrics: per-worker EWMA rates + Prometheus exposition.

The service's :class:`~repro.sweep.dist.lease.LeaseTable`\\ s know the
state machine; this module knows the *speeds*. One :class:`EwmaRate` per
worker tracks its points-per-second as an exponentially-weighted moving
average of inter-completion intervals — cheap (O(1) per completion),
smooth under jitter, and bounded-stale: :meth:`EwmaRate.current` caps
the reported rate by the worker's silence gap, so a worker that stopped
completing decays toward zero instead of advertising its last burst
forever.

:func:`prometheus_exposition` renders the service's ``status()``
document (counts, per-worker tallies, rates, lease ages) in the
Prometheus text format, served verbatim as the ``METRICS`` reply —
scrape it with ``redis-cli``-style tooling, CI smoke jobs, or an actual
Prometheus ``textfile`` collector.
"""

from __future__ import annotations

from typing import Optional

from repro.errors import SweepError

#: Default EWMA smoothing factor: ~63% of the estimate comes from the
#: last three completions.
DEFAULT_ALPHA = 0.3


class EwmaRate:
    """Exponentially-weighted points-per-second of one worker.

    Not internally locked: the service mutates and reads it under its
    dispatch lock, like every other per-worker structure.
    Pure bookkeeping — nothing here is durable or needs to be.
    """

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha <= 1.0:
            raise SweepError(f"alpha must be in (0, 1], got {alpha}")
        self.alpha = alpha
        self._rate: Optional[float] = None
        self._last: Optional[float] = None  # last completion (or activity start)

    def mark_active(self, now: float) -> None:
        """Start the first measurement window (first claim)."""
        if self._last is None:
            self._last = float(now)

    def observe(self, now: float) -> None:
        """Record one completion at time ``now``."""
        now = float(now)
        if self._last is None:
            # No claim was seen (a DONE from before a restart): anchor here and
            # let the next completion produce the first interval.
            self._last = now
            return
        interval = now - self._last
        self._last = now
        if interval <= 0.0:
            # Clock did not advance between completions (quantized test
            # clocks): treat as "at least as fast as before".
            return
        instant = 1.0 / interval
        if self._rate is None:
            self._rate = instant
        else:
            self._rate += self.alpha * (instant - self._rate)

    def current(self, now: float) -> float:
        """Rate estimate at ``now``, decayed by the silence gap.

        A worker silent for ``g`` seconds cannot currently be faster
        than ``1/g`` points/sec, whatever its history — the cap keeps a
        stalled worker's advertised rate honest without extra state.
        """
        if self._rate is None:
            return 0.0
        gap = float(now) - (self._last if self._last is not None else now)
        if gap > 0.0:
            return min(self._rate, 1.0 / gap)
        return self._rate


def _escape_label(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _family(
    lines: list[str], name: str, kind: str, help_text: str,
    samples: list[tuple[dict, float]],
) -> None:
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    for labels, value in samples:
        if labels:
            inner = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in sorted(labels.items())
            )
            lines.append(f"{name}{{{inner}}} {value:g}")
        else:
            lines.append(f"{name} {value:g}")


def prometheus_exposition(status: dict) -> str:
    """Render a service ``status()`` dict as Prometheus text.

    Families: grid point states, session counters (reclaims, requeues,
    executed, replayed), and per-worker counters/rates/lease ages from
    the ``workers``/``rates`` sections.
    """
    lines: list[str] = []
    counts = status.get("counts", {})
    _family(
        lines,
        "repro_sweep_points",
        "gauge",
        "Grid points by lease state.",
        [({"state": state}, float(n)) for state, n in sorted(counts.items())],
    )
    _family(
        lines,
        "repro_sweep_points_total",
        "gauge",
        "Total points in the served grid.",
        [({}, float(status.get("n_points", 0)))],
    )
    for name, help_text in (
        ("reclaims", "Leases stolen back from expired workers."),
        ("requeues", "Terminal worker failures re-queued to other workers."),
        ("executed", "Points completed by workers this session."),
        ("replayed", "Points restored from the store at (re)start."),
    ):
        _family(
            lines,
            f"repro_sweep_{name}_total",
            "counter",
            help_text,
            [({}, float(status.get(name, 0)))],
        )
    workers = status.get("workers", {})
    for counter in ("claimed", "completed", "failed"):
        _family(
            lines,
            f"repro_sweep_worker_{counter}_total",
            "counter",
            f"Points {counter} per worker.",
            [
                ({"worker": worker}, float(entry.get(counter, 0)))
                for worker, entry in sorted(workers.items())
            ],
        )
    rates = status.get("rates", {})
    _family(
        lines,
        "repro_sweep_worker_rate_points_per_second",
        "gauge",
        "EWMA completion rate per worker, decayed by silence.",
        [
            ({"worker": worker}, float(entry.get("points_per_second", 0.0)))
            for worker, entry in sorted(rates.items())
        ],
    )
    _family(
        lines,
        "repro_sweep_worker_lease_age_seconds",
        "gauge",
        "Age of the worker's current lease (0 when idle).",
        [
            ({"worker": worker}, float(entry.get("lease_age_seconds") or 0.0))
            for worker, entry in sorted(rates.items())
        ],
    )
    return "\n".join(lines) + "\n"


__all__ = ["DEFAULT_ALPHA", "EwmaRate", "prometheus_exposition"]
