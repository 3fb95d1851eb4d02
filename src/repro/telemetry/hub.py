"""The Telemetry hub: one object to thread through a whole run.

Bundles a :class:`~repro.telemetry.tracing.Tracer` and a
:class:`~repro.telemetry.metrics.MetricsRegistry`. Workloads and
experiments accept ``telemetry=None``; passing one hub to everything
produces a single coherent trace + metrics document::

    telemetry = Telemetry()
    result = run_one_to_one(model, config, telemetry=telemetry)
    telemetry.save_trace("out.json")      # open in Perfetto
    telemetry.save_metrics("metrics.json")

A run touches the hub at two points. For a simulated run the hub binds
itself to the DES environment at the start (:meth:`bind_environment`):
span timestamps switch to virtual time and a
:class:`~repro.des.probe.PeriodicSampler` starts recording engine gauge
series (event-heap depth, plus whatever the workload registers). When
the run ends the pattern runner hands :meth:`Telemetry.record_run` what
the run kept anyway: its :class:`~repro.telemetry.events.EventLog` (one
row per iteration and per transport op), the fault injector's records,
the resilience wrappers' failed attempts and the quorum misses. Every
span, marker and metric of the run is derived from those.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from repro.telemetry.events import TRANSPORT_KINDS, EventKind, EventLog
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment
    from repro.des.probe import PeriodicSampler
    from repro.faults.injector import FaultInjector
    from repro.transport.resilience import ResilienceStats
    from repro.workloads.patterns import QuorumMiss

#: Default simulated-seconds between engine gauge samples.
DEFAULT_SAMPLE_INTERVAL = 0.25

#: Log kinds that are transport ops, and (as stored) those on the link.
_OP_KINDS = TRANSPORT_KINDS | {EventKind.POLL}
_WIRE_VALUES = frozenset(kind.value for kind in TRANSPORT_KINDS)
#: Log kinds that are one workload iteration each.
_ITERATION_KINDS = (EventKind.COMPUTE, EventKind.TRAIN)


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

    # -- a finished run, from its records -------------------------------------
    def record_run(
        self,
        log: EventLog,
        backend: str,
        resilience: Iterable["ResilienceStats"] = (),
        injector: Optional["FaultInjector"] = None,
        quorum_misses: Iterable["QuorumMiss"] = (),
        retries_only: bool = False,
    ) -> None:
        """Emit what a run's records say, once, when it ends.

        Only finished records are read, so a run that raised part-way
        gets what it finished. A real run passes ``retries_only``: its
        attempts are timed on ``time.monotonic``, not on this hub's
        clock, so only their ``resilience.retries`` counters are derived.
        """
        self._record_iterations(log)
        self._record_transport(log, backend)
        if injector is not None:
            self._record_faults(injector)
        for stats in resilience:
            self._record_resilience(stats, backend, retries_only)
        for miss in quorum_misses:
            self.tracer.instant(
                "quorum.miss", category="resilience", pid=miss.track, time=miss.time,
                update=miss.update, arrived=miss.arrived, needed=miss.needed,
            )

    def _record_iterations(self, log: EventLog) -> None:
        """One ``iteration.<component>`` span per COMPUTE/TRAIN row, on the
        row's track; ``iteration`` is the row's 1-based position there."""
        ordinals: dict[tuple, int] = {}
        for component, _, start, duration, rank, *_ in (
            log.filter(kinds=_ITERATION_KINDS)._expanded()
        ):
            ordinals[component, rank] = ordinal = ordinals.get((component, rank), 0) + 1
            self.tracer.add_span(
                f"iteration.{component}", start=start, duration=duration,
                category="workload", pid=component, tid=rank, iteration=ordinal,
            )

    def _record_transport(self, log: EventLog, backend: str) -> None:
        """Emit what a run's WRITE/READ/POLL rows say about its transport.

        Per row, in log order: a ``transport.<kind>`` span on the row's
        ``(component, rank)`` track, and one update of
        ``transport.<kind>.{seconds,ops,bytes}{backend=...}`` (``bytes``
        only for a nonzero size). Then ``link.occupancy``, the number of
        WRITE/READ ops open (a poll is not modeled as occupying the
        link): one gauge sample and one tracer counter sample at each
        instant where that number changes.
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

    def _record_faults(self, injector: "FaultInjector") -> None:
        """``fault.inject``/``fault.recover`` markers on the injector's
        track and ``faults.injected{kind}`` per injected fault, and
        ``faults.recovery.seconds{kind}`` per healed one, in the order
        they healed."""
        tracer, metrics = self.tracer, self.metrics
        healed = []
        for fault in injector.injected:
            spec = fault.spec
            kind = spec.kind.value
            where = dict(pid=injector.component, kind=kind, target=spec.target,
                         severity=spec.severity)
            tracer.instant("fault.inject", category="fault", time=fault.injected_at, **where)
            metrics.counter("faults.injected", kind=kind).inc()
            if fault.recovered_at is not None:
                tracer.instant(
                    "fault.recover", category="fault", time=fault.recovered_at,
                    **where, latency=fault.recovery_latency,
                )
                healed.append(fault)
        # Injection order is also the order of the DES calendar at equal
        # recovery instants, so a stable sort restores the healing order.
        for fault in sorted(healed, key=lambda fault: fault.recovered_at):
            metrics.histogram("faults.recovery.seconds", kind=fault.spec.kind.value).observe(
                fault.recovery_latency
            )

    def _record_resilience(
        self, stats: "ResilienceStats", backend: str, retries_only: bool
    ) -> None:
        """Per failed attempt: a ``transport.retry`` marker on its track and
        ``resilience.retries{backend,op}``, or ``resilience.giveups{backend,op}``
        for one that gave up; then ``resilience.recovery.seconds{backend}``."""
        for attempt in stats.failed:
            if retries_only and attempt.gave_up:
                continue
            what = "giveups" if attempt.gave_up else "retries"
            self.metrics.counter(f"resilience.{what}", backend=backend, op=attempt.op).inc()
            if not (attempt.gave_up or retries_only):
                self.tracer.instant(
                    "transport.retry", category="resilience", pid=attempt.track,
                    time=attempt.time, op=attempt.op, key=attempt.key,
                    attempt=attempt.attempt, error=attempt.error,
                )
        if stats.recovery_latencies and not retries_only:
            recovery = self.metrics.histogram("resilience.recovery.seconds", backend=backend)
            for latency in stats.recovery_latencies:
                recovery.observe(latency)

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
    def save_trace(self, path) -> int:
        """Write the Chrome trace file; returns the event count."""
        from repro.telemetry.chrome_trace import write_chrome_trace

        return write_chrome_trace(path, self.tracer)

    def save_metrics(self, path) -> None:
        self.metrics.save_json(path)
