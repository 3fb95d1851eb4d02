"""Hierarchical spans: where time goes *inside* a run.

The flat :class:`~repro.telemetry.events.EventLog` answers "how long did
each iteration/transport op take"; spans answer "what happened *within*
it and in what nesting" — queueing vs. wire time vs. metadata contention.

A :class:`Tracer` collects finished :class:`Span` records plus counter
samples. It is clock-agnostic: in real mode it reads a wall clock, in
sim mode it is bound to a DES :class:`~repro.des.core.Environment` so
spans carry *virtual* timestamps (:meth:`Tracer.bind_clock`). Spans nest
per track — a track is a ``(pid, tid)`` pair, by convention the
component name and rank — so concurrently simulated processes do not
corrupt each other's parent/child chains::

    tracer = Tracer()
    with tracer.span("iteration", category="workload", pid="train"):
        with tracer.span("transport.write", category="transport", pid="train"):
            ...  # parented under "iteration"

Export with :mod:`repro.telemetry.chrome_trace` to view the result in
Perfetto / chrome://tracing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import ReproError
from repro.telemetry.timer import Clock, RealClock


class Span:
    """One named, timed region on a track, possibly nested in a parent.

    Use as a context manager (via :meth:`Tracer.span`) or finish manually
    with :meth:`finish`. ``args`` carries arbitrary attributes (key,
    nbytes, backend, ...) that the Chrome exporter surfaces in the UI.
    """

    __slots__ = ("name", "category", "pid", "tid", "start", "end", "args", "parent", "_tracer")

    def __init__(
        self,
        name: str,
        category: str,
        pid: str,
        tid: int,
        start: float,
        args: dict[str, Any],
        parent: Optional["Span"] = None,
        tracer: Optional["Tracer"] = None,
    ) -> None:
        self.name = name
        self.category = category
        self.pid = pid
        self.tid = tid
        self.start = start
        self.end: Optional[float] = None
        self.args = args
        self.parent = parent
        self._tracer = tracer

    @property
    def duration(self) -> float:
        """Seconds between start and finish (0 while still open)."""
        return (self.end - self.start) if self.end is not None else 0.0

    @property
    def finished(self) -> bool:
        return self.end is not None

    def set(self, **attrs: Any) -> "Span":
        """Attach/overwrite attributes; chainable."""
        self.args.update(attrs)
        return self

    def finish(self, end: Optional[float] = None) -> "Span":
        """Close the span (idempotent) and hand it to the tracer."""
        if self.end is None:
            if self._tracer is not None:
                self._tracer._finish(self, end)
            else:
                self.start = float(self.start)
                self.end = self.start if end is None else float(end)
        return self

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self.finish()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = f"{self.duration:.6f}s" if self.finished else "open"
        return f"Span({self.name!r}, pid={self.pid!r}, tid={self.tid}, {state})"


@dataclass(frozen=True)
class CounterSample:
    """One sample of one or more co-plotted counter series."""

    name: str
    time: float
    values: dict[str, float]
    pid: str = "counters"


@dataclass(frozen=True)
class InstantEvent:
    """A zero-duration marker (Chrome ``ph: "i"``)."""

    name: str
    time: float
    pid: str
    tid: int
    category: str = ""
    args: dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects spans, instants, and counter samples for one run."""

    def __init__(self, clock: Optional[Clock | Callable[[], float]] = None) -> None:
        self._now: Callable[[], float] = self._resolve_clock(clock)
        self.spans: list[Span] = []
        self.counters: list[CounterSample] = []
        self.instants: list[InstantEvent] = []
        # Open-span stack per (pid, tid) track: nesting is per track, so
        # interleaved DES processes keep independent parent chains.
        self._stacks: dict[tuple[str, int], list[Span]] = {}

    @staticmethod
    def _resolve_clock(clock: Optional[Clock | Callable[[], float]]) -> Callable[[], float]:
        if clock is None:
            return RealClock().now
        if isinstance(clock, Clock):
            return clock.now
        if callable(clock):
            return clock
        raise ReproError(f"clock must be a Clock or callable, got {clock!r}")

    def bind_clock(self, clock: Clock | Callable[[], float]) -> None:
        """Re-point the tracer at another time source (e.g. ``env.now``)."""
        self._now = self._resolve_clock(clock)

    def now(self) -> float:
        return self._now()

    # -- spans ------------------------------------------------------------
    def span(
        self,
        name: str,
        category: str = "",
        pid: str = "main",
        tid: int = 0,
        **args: Any,
    ) -> Span:
        """Open a span on track ``(pid, tid)``; close it to record it."""
        track = (pid, tid)
        stack = self._stacks.setdefault(track, [])
        parent = stack[-1] if stack else None
        span = Span(
            name=name,
            category=category,
            pid=pid,
            tid=tid,
            start=self._now(),
            args=dict(args),
            parent=parent,
            tracer=self,
        )
        stack.append(span)
        return span

    def add_span(
        self,
        name: str,
        start: float,
        duration: float,
        category: str = "",
        pid: str = "main",
        tid: int = 0,
        **args: Any,
    ) -> Span:
        """Record an already-measured span (no nesting bookkeeping)."""
        if duration < 0:
            raise ReproError(f"negative span duration {duration} for {name!r}")
        span = Span(name, category, pid, tid, float(start), dict(args))
        span.end = float(start) + float(duration)
        self.spans.append(span)
        return span

    def _finish(self, span: Span, end: Optional[float]) -> None:
        span.end = self._now() if end is None else float(end)
        stack = self._stacks.get((span.pid, span.tid))
        if stack and span in stack:
            # Closing out of order force-closes anything nested deeper.
            while stack:
                top = stack.pop()
                if top is span:
                    break
                if top.end is None:
                    top.end = span.end
                    self.spans.append(top)
        self.spans.append(span)

    def current(self, pid: str = "main", tid: int = 0) -> Optional[Span]:
        """The innermost open span on a track, if any."""
        stack = self._stacks.get((pid, tid))
        return stack[-1] if stack else None

    # -- markers and counters ---------------------------------------------
    def instant(
        self,
        name: str,
        category: str = "",
        pid: str = "main",
        tid: int = 0,
        time: Optional[float] = None,
        **args: Any,
    ) -> InstantEvent:
        """Record a marker at ``time`` (default: now)."""
        when = self._now() if time is None else float(time)
        event = InstantEvent(name, when, pid, tid, category, dict(args))
        self.instants.append(event)
        return event

    def counter(
        self,
        name: str,
        value: float | dict[str, float],
        pid: str = "counters",
        time: Optional[float] = None,
    ) -> CounterSample:
        """Record a counter-track sample (rendered as an area chart)."""
        values = {"value": float(value)} if not isinstance(value, dict) else {
            k: float(v) for k, v in value.items()
        }
        sample = CounterSample(
            name=name,
            time=self._now() if time is None else float(time),
            values=values,
            pid=pid,
        )
        self.counters.append(sample)
        return sample

    # -- queries ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.spans)

    def finished_spans(self, category: Optional[str] = None) -> list[Span]:
        if category is None:
            return list(self.spans)
        return [s for s in self.spans if s.category == category]

    def categories(self) -> list[str]:
        """Distinct span categories in first-seen order."""
        seen: dict[str, None] = {}
        for span in self.spans:
            seen.setdefault(span.category, None)
        return list(seen)
