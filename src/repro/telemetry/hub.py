"""The Telemetry hub: one object to thread through a whole run.

Bundles a :class:`~repro.telemetry.tracing.Tracer` and a
:class:`~repro.telemetry.metrics.MetricsRegistry`. Workloads and
experiments accept ``telemetry=None``; passing one hub to everything
produces a single coherent trace + metrics document::

    telemetry = Telemetry()
    result = run_one_to_one(model, config, telemetry=telemetry)
    telemetry.save_trace("out.json")      # open in Perfetto
    telemetry.save_metrics("metrics.json")

A transport op is recorded once, as a row of the run's
:class:`~repro.telemetry.events.EventLog`; when the run ends the pattern
runner hands that log to :meth:`Telemetry.record_transport`, which
derives the transport spans, the ``transport.*`` metrics and the
``link.occupancy`` series from it.

For simulated runs the hub binds itself to the DES environment
(:meth:`bind_environment`): span timestamps switch to virtual time and a
:class:`~repro.des.probe.PeriodicSampler` starts recording engine gauge
series (event-heap depth, plus whatever the workload registers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.telemetry.events import TRANSPORT_KINDS, EventKind, EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment
    from repro.des.probe import PeriodicSampler

#: Default simulated-seconds between engine gauge samples.
DEFAULT_SAMPLE_INTERVAL = 0.25

#: Log kinds that are transport ops, and (as stored) those on the link.
_OP_KINDS = TRANSPORT_KINDS | {EventKind.POLL}
_WIRE_VALUES = frozenset(kind.value for kind in TRANSPORT_KINDS)


class Telemetry:
    """Tracer + metrics registry, and the sampler of a bound DES run."""

    def __init__(
        self,
        tracer: Optional[Tracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        sample_interval: float = DEFAULT_SAMPLE_INTERVAL,
    ) -> None:
        self.tracer = tracer or Tracer()
        self.metrics = metrics or MetricsRegistry()
        self.sample_interval = sample_interval
        self.sampler: Optional["PeriodicSampler"] = None

    # -- convenience passthroughs ----------------------------------------
    def span(self, name: str, **kwargs):
        return self.tracer.span(name, **kwargs)

    def now(self) -> float:
        return self.tracer.now()

    # -- transport, from the run's log ---------------------------------------
    def record_transport(self, log: EventLog, backend: str) -> None:
        """Emit what a run's WRITE/READ/POLL rows say about its transport.

        Per row, in log order: a ``transport.<kind>`` span on the row's
        ``(component, rank)`` track, and one update of
        ``transport.<kind>.{seconds,ops,bytes}{backend=...}`` (``bytes``
        only for a nonzero size). Then ``link.occupancy``, the number of
        WRITE/READ ops open (a poll is not modeled as occupying the
        link): one gauge sample and one tracer counter sample at each
        instant where that number changes. Only rows are read, so a
        run that raised part-way gets the ops it finished.
        """
        tracer, metrics = self.tracer, self.metrics
        label = {"backend": backend}
        instruments: dict[str, tuple] = {}
        moved: dict[str, object] = {}  # kind -> bytes counter, made on first bytes
        steps: dict[float, int] = {}
        for component, kind, start, duration, rank, nbytes, key, _ in (
            log.filter(kinds=_OP_KINDS)._expanded()
        ):
            try:
                name, seconds, ops = instruments[kind]
            except KeyError:
                name = f"transport.{kind}"
                seconds = metrics.histogram(f"{name}.seconds", **label)
                ops = metrics.counter(f"{name}.ops", **label)
                instruments[kind] = name, seconds, ops
            tracer.add_span(
                name, start=start, duration=duration, category="transport",
                pid=component, tid=rank, key=key, nbytes=nbytes, backend=backend,
            )
            seconds.observe(duration)
            ops.inc()
            if nbytes:
                if kind not in moved:
                    moved[kind] = metrics.counter(f"{name}.bytes", **label)
                moved[kind].inc(nbytes)
            if kind in _WIRE_VALUES:
                end = start + duration
                steps[start] = steps.get(start, 0) + 1
                steps[end] = steps.get(end, 0) - 1
        if not steps:
            return
        gauge, level = metrics.gauge("link.occupancy"), 0
        for t in sorted(steps):
            if steps[t]:
                level += steps[t]
                gauge.set(level, t=t)
                tracer.counter("link.occupancy", level, time=t)

    # -- DES binding -------------------------------------------------------
    def bind_environment(self, env: "Environment") -> "PeriodicSampler":
        """Switch to virtual time and start the engine gauge sampler."""
        from repro.des.probe import PeriodicSampler, attach_probe

        self.tracer.bind_clock(lambda: env.now)
        sampler = PeriodicSampler(
            self.sample_interval, metrics=self.metrics, tracer=self.tracer
        )
        sampler.watch_heap(env)
        attach_probe(env, sampler)
        self.sampler = sampler
        return sampler

    # -- cross-process transfer --------------------------------------------
    def snapshot(self):
        """Flatten collected state into a picklable
        :class:`~repro.telemetry.snapshot.TelemetrySnapshot` (for shipping
        a worker process's telemetry back to a parent hub)."""
        from repro.telemetry.snapshot import TelemetrySnapshot

        return TelemetrySnapshot.capture(self)

    def merge(self, snapshot) -> None:
        """Replay a :class:`~repro.telemetry.snapshot.TelemetrySnapshot`
        (e.g. from a sweep worker) into this hub; None is a no-op."""
        if snapshot is not None:
            snapshot.merge_into(self)

    # -- output ------------------------------------------------------------
    def save_trace(self, path, event_log=None) -> int:
        """Write the Chrome trace file; returns the event count."""
        from repro.telemetry.chrome_trace import write_chrome_trace

        return write_chrome_trace(path, tracer=self.tracer, event_log=event_log)

    def save_metrics(self, path) -> None:
        self.metrics.save_json(path)
