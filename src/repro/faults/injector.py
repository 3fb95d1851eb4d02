"""The fault injector: replays a :class:`~repro.faults.plan.FaultPlan`
through DES events.

One injector process per materialised fault waits (in virtual time) until
the fault's instant, applies it to the shared
:class:`~repro.faults.state.FaultState`, and — for windowed faults —
reverts it after the duration. Because injections travel through the
same event calendar as the workload, virtual-time determinism is fully
preserved: the same plan against the same workload produces bit-identical
runs.

Each fault's lifecycle is kept as an :class:`InjectedFault` in
:attr:`FaultInjector.injected`, and each healed window is also an
:class:`~repro.telemetry.events.EventKind.FAULT` record in the run's
EventLog (duration = the outage span).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Optional

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.state import FaultState
from repro.telemetry.events import EventKind, EventLog

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.core import Environment, Process


@dataclass
class InjectedFault:
    """One fault's lifecycle as observed during the run."""

    spec: FaultSpec
    injected_at: float
    recovered_at: Optional[float] = None

    @property
    def recovery_latency(self) -> Optional[float]:
        """Outage span in virtual seconds; None while still open."""
        if self.recovered_at is None:
            return None
        return self.recovered_at - self.injected_at


class FaultInjector:
    """Drives a plan's faults into a DES run."""

    def __init__(
        self,
        env: "Environment",
        plan: FaultPlan,
        state: FaultState,
        event_log: Optional[EventLog] = None,
        component: str = "faults",
    ) -> None:
        self.env = env
        self.plan = plan
        self.state = state
        self.event_log = event_log
        self.component = component
        self.injected: list[InjectedFault] = []

    def start(self) -> list["Process"]:
        """Spawn one process per materialised fault; returns them."""
        procs = []
        for i, spec in enumerate(self.plan.materialize()):
            procs.append(
                self.env.process(
                    self._drive(spec), name=f"{self.component}:{spec.kind.value}:{i}"
                )
            )
        return procs

    def _drive(self, spec: FaultSpec) -> Generator:
        """DES process: wait, apply the fault, and revert it after its window."""
        if spec.at > self.env.now:
            yield spec.at - self.env.now
        record = InjectedFault(spec=spec, injected_at=self.env.now)
        self.injected.append(record)
        self.state.apply(spec)
        if spec.duration > 0:
            yield spec.duration
            self.state.revert(spec)
            record.recovered_at = self.env.now
            if self.event_log is not None:
                self.event_log.add(
                    component=self.component,
                    kind=EventKind.FAULT,
                    start=record.injected_at,
                    duration=record.recovery_latency,
                    key=f"{spec.kind.value}:{spec.target}" if spec.target else spec.kind.value,
                )

    # -- reporting ----------------------------------------------------------
    def summary(self) -> dict:
        """Aggregate what was injected and how fast it healed."""
        by_kind: dict[str, int] = {}
        latencies = []
        for rec in self.injected:
            by_kind[rec.spec.kind.value] = by_kind.get(rec.spec.kind.value, 0) + 1
            if rec.recovery_latency is not None:
                latencies.append(rec.recovery_latency)
        return {
            "injected": len(self.injected),
            "by_kind": dict(sorted(by_kind.items())),
            "recovered": len(latencies),
            "mean_recovery_seconds": (
                sum(latencies) / len(latencies) if latencies else 0.0
            ),
            "max_recovery_seconds": max(latencies) if latencies else 0.0,
            "drops": self.state.drops,
            "corruptions": self.state.corruptions,
        }
