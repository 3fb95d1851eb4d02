"""Event primitives for the discrete-event simulation engine.

The engine follows the classic event-calendar design: an
:class:`~repro.des.core.Environment` owns a priority queue of scheduled
events; each :class:`Event` carries a list of callbacks that run when the
event is *processed* (popped from the calendar at its scheduled time).

Events move through three states:

``pending``
    Created but not yet triggered; not on the calendar.
``triggered``
    A value (or exception) has been assigned and the event has been pushed
    onto the calendar.
``processed``
    The calendar popped the event and ran its callbacks.

Processes (:class:`~repro.des.core.Process`) are themselves events that
trigger when their generator terminates, which is what makes ``yield proc``
(join semantics) work.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.des.core import Environment

# Scheduling priorities: lower runs first among events at the same time.
URGENT = 0
NORMAL = 1


class Event:
    """A happening at a point in simulated time.

    Callbacks are ``callable(event)`` and run in registration order when the
    event is processed.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_triggered", "_processed")

    _PENDING = object()

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = Event._PENDING
        self._ok: bool = True
        self._triggered = False
        self._processed = False

    # -- state ----------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once a value or exception has been assigned."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful once triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value; raises if the event has not been triggered."""
        if self._value is Event._PENDING:
            raise SimulationError(f"value of {self!r} is not yet available")
        return self._value

    # -- triggering -----------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Trigger the event successfully with ``value``."""
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        self._triggered = True
        self.env.schedule(self, priority=priority)
        return self

    def fail(self, exception: BaseException, priority: int = NORMAL) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside any process waiting on the event.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._triggered:
            raise SimulationError(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        self._triggered = True
        self.env.schedule(self, priority=priority)
        return self

    def trigger(self, event: "Event") -> None:
        """Copy the state of ``event`` onto this event and schedule it."""
        if event._ok:
            self.succeed(event._value)
        else:
            self.fail(event._value)

    # -- composition ----------------------------------------------------
    def __and__(self, other: "Event") -> "AllOf":
        return AllOf(self.env, [self, other])

    def __or__(self, other: "Event") -> "AnyOf":
        return AnyOf(self.env, [self, other])

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed" if self._processed else "triggered" if self._triggered else "pending"
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:  # negative or NaN (NaN would poison the clock)
            raise SimulationError(f"timeout delay must be >= 0, got {delay!r}")
        # Fast path: one Timeout per simulated wait makes this the
        # hottest constructor in the engine, so the Event.__init__ +
        # Environment.schedule() call chain is inlined. State and push
        # order (including the probe hook) are identical to
        # ``Event.__init__`` followed by ``env.schedule(...)``.
        delay = float(delay)
        self.env = env
        self.callbacks = []
        self._value = value
        self._ok = True
        self._triggered = True
        self._processed = False
        self.delay = delay
        at = env._now + delay
        seq = env._seq
        env._seq = seq + 1
        queue = env._queue
        if type(queue) is list:
            heappush(queue, (at, NORMAL, seq, self))
        else:
            queue.push((at, NORMAL, seq, self))
        if env.probe is not None:
            env.probe.on_schedule(env, self, at, NORMAL)


class Initialize(Event):
    """Immediate event used to start a new process."""

    __slots__ = ()

    def __init__(self, env: "Environment") -> None:
        super().__init__(env)
        self._ok = True
        self._value = None
        self._triggered = True
        env.schedule(self, priority=URGENT)


class ConditionValue:
    """Mapping-like result of a condition event: the triggered sub-events."""

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(key)
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def todict(self) -> dict[Event, Any]:
        return {event: event.value for event in self.events}

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ConditionValue {self.todict()!r}>"


class Condition(Event):
    """Event that triggers when ``evaluate(events, n_triggered)`` is true."""

    __slots__ = ("_events", "_evaluate", "_count")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        super().__init__(env)
        self._events = list(events)
        self._evaluate = evaluate
        self._count = 0

        for event in self._events:
            if event.env is not env:
                raise SimulationError("cannot mix events from different environments")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event._processed:
                self._check(event)
            else:
                assert event.callbacks is not None
                event.callbacks.append(self._check)

    def _collect_values(self) -> ConditionValue:
        # Filter on processed, not triggered: a Timeout is "triggered" the
        # moment it is created (it carries its value from the start), but it
        # has not *happened* until the calendar processes it.
        return ConditionValue([e for e in self._events if e._processed])

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        self._count += 1
        if not event._ok:
            # A failing sub-event fails the whole condition immediately.
            self.fail(event._value)
        elif self._evaluate(self._events, self._count):
            self.succeed(self._collect_values())

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        return count > 0 or not events


class AllOf(Condition):
    """Condition that triggers once all sub-events have triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Condition that triggers once any sub-event has triggered."""

    __slots__ = ()

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)


class Interrupt(Exception):
    """Raised inside a process when another process interrupts it."""

    @property
    def cause(self) -> Any:
        """The cause passed to :meth:`Process.interrupt`."""
        return self.args[0]
