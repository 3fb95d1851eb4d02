"""The discrete-event simulation core: :class:`Environment` and :class:`Process`.

The :class:`Environment` owns the event calendar (a binary heap keyed on
``(time, priority, sequence)``) and the simulation clock. Processes are
Python generators that ``yield`` what they wait for: a non-negative
``float`` to sleep that many simulated seconds, or an event, whose value
is sent back into the generator — so simulated code reads naturally::

    def producer(env, store):
        while True:
            yield 1.0                       # sleep: allocates nothing
            yield store.put("item")         # wait for an event

    def consumer(env, store, patience):
        item = store.get()
        got = yield item | env.timeout(patience)   # whichever comes first
        return got[item] if item in got else None

``yield delay`` and ``yield env.timeout(delay)`` schedule the same
calendar entry at the same point, so a simulation orders its events
identically either way. The float form is for a wait nobody else needs
to see; ``env.timeout()`` makes the event object that ``any_of`` /
``all_of``, ``value=`` or another process can hold.

Determinism: given the same process structure and the same seeded RNG
streams, event ordering is fully deterministic because ties are broken by a
monotonically increasing sequence number.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import TYPE_CHECKING, Any, Generator, Iterable, Optional, Union

from repro.des.calendar import CalendarQueue
from repro.des.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Event,
    Initialize,
    Interrupt,
    Timeout,
)
from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.des.probe import Probe

#: What a process yields: an event to wait for, or a delay to sleep.
ProcessGenerator = Generator[Union[Event, float], Any, Any]

#: Valid event-core names for :class:`Environment`.
CORES = ("heap", "calendar")

# Session override for the default event core; ``None`` means "heap".
_default_core: Optional[str] = None


def set_default_core(core: Optional[str]) -> None:
    """Set the event core used when ``Environment(core=None)``.

    The seam the golden-trace tests replay every digest through; pass
    ``None`` to go back to ``"heap"``.
    """
    if core is not None and core not in CORES:
        raise ValueError(f"unknown DES core {core!r}; expected one of {CORES}")
    global _default_core
    _default_core = core


def default_core() -> str:
    """The event core used when an :class:`Environment` does not name one."""
    return _default_core or "heap"


class EmptySchedule(SimulationError):
    """Raised by :meth:`Environment.step` when no events remain."""


class StopProcess(Exception):
    """Raised internally to abort :meth:`Environment.run` at ``until``."""


def _detached(event: "Event") -> None:
    """No-op callback left behind when a process detaches from an event.

    Detaching swaps the process's resume callback for this sentinel
    instead of calling ``list.remove``: no tail shifting, and the other
    callbacks keep their exact positions, so run order is bit-identical
    to a removal.
    """


class Process(Event):
    """A process wraps a generator and is itself an event.

    The generator waits by yielding either an :class:`Event` (resumed
    with the event's value) or a plain non-negative ``float`` — *sleep
    that many seconds*, the allocation-free form of
    ``yield env.timeout(delay)``: the process re-arms one private,
    reusable :class:`Timeout` and is woken straight from its calendar
    entry. Both forms take the same sequence number at the same point,
    so the event order is identical.

    The process event triggers with the generator's return value when the
    generator terminates, so other processes can wait on it ("join").
    """

    __slots__ = ("_generator", "_send", "_target", "name", "_resume_cb", "_sleep", "_sleep_cbs")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise SimulationError(f"{generator!r} is not a generator")
        super().__init__(env)
        self._generator = generator
        self._send = generator.send
        self.name = name or getattr(generator, "__name__", "process")
        # One bound method reused for every wait: appending self._resume
        # directly would allocate a fresh bound-method object per yield.
        self._resume_cb = self._resume
        self._new_sleep()
        # The event the process is currently waiting on (None when resuming).
        self._target: Optional[Event] = Initialize(env)
        self._target.callbacks.append(self._resume_cb)

    def _new_sleep(self) -> None:
        """Give the process an unarmed sleep timeout and its callback list.

        The timeout is built without ``Timeout.__init__`` (which would
        schedule it) in the state the run loop leaves a fired one in;
        ``yield delay`` arms it by pointing ``callbacks`` back at the
        one-element list, which nothing ever mutates.
        """
        sleep = Timeout.__new__(Timeout)
        sleep.env = self.env
        sleep.callbacks = None
        sleep._value = None
        sleep._ok = True
        sleep._triggered = True
        sleep._processed = True
        sleep.delay = 0.0
        self._sleep = sleep
        self._sleep_cbs = [self._resume_cb]

    @property
    def target(self) -> Optional[Event]:
        """The event this process is currently waiting for.

        For a process sleeping on ``yield delay`` this is its private
        :class:`Timeout`, which the process re-arms for every later
        sleep: inspect it, but wait on an ``env.timeout()`` of your own.
        """
        return self._target

    @property
    def is_alive(self) -> bool:
        """True while the process generator has not terminated."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a dead process is an error; interrupting a process
        waiting on an event detaches it from that event.
        """
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt dead process {self.name!r}")
        if self is self.env.active_process:
            raise SimulationError("a process cannot interrupt itself")
        # Deliver via an urgent event so interrupt ordering is deterministic.
        event = Event(self.env)
        event._ok = False
        event._value = Interrupt(cause)
        event._triggered = True
        self.env.schedule(event, priority=0)
        assert event.callbacks is not None
        event.callbacks.append(self._resume_interrupt)

    # -- generator driving ------------------------------------------------
    def _resume_interrupt(self, event: Event) -> None:
        if not self.is_alive:
            return  # terminated before the interrupt was delivered
        # Detach from the event we were waiting on (sentinel swap, see
        # :func:`_detached`).
        target = self._target
        if target is not None and target.callbacks is not None:
            callbacks = target.callbacks
            try:
                callbacks[callbacks.index(self._resume_cb)] = _detached
            except ValueError:
                pass
            if target is self._sleep:
                # The armed sleep keeps its (now detached) list and its
                # calendar entry, which pops later and wakes nobody, as
                # a detached Timeout does. Re-arming it instead would
                # let that stale entry fire the next sleep early.
                self._new_sleep()
        self._target = None
        self._resume(event)

    def _resume(self, event: Event) -> None:
        env = self.env
        env._active_proc = self
        if env.probe is not None:
            env.probe.on_process_switch(env, self)
        send = self._send
        try:
            while True:
                try:
                    if event._ok:
                        yielded = send(event._value)
                    else:
                        # Mark the failure as handled: the process sees it.
                        yielded = self._generator.throw(event._value)
                except StopIteration as exc:
                    self._ok = True
                    self._value = exc.value
                    self._triggered = True
                    env.schedule(self)
                    break
                except BaseException as exc:
                    self._ok = False
                    self._value = exc
                    self._triggered = True
                    env.schedule(self)
                    break

                if type(yielded) is not float:
                    try:
                        callbacks = yielded.callbacks
                    except AttributeError:
                        if not isinstance(yielded, (int, float)) or type(yielded) is bool:
                            event = self._bad_yield(f"yielded a non-event: {yielded!r}")
                            continue
                        yielded = float(yielded)  # an int or float subclass: sleep
                    else:
                        if callbacks is None:
                            # Already happened: resume immediately with its value.
                            event = yielded
                            continue
                        self._target = yielded
                        callbacks.append(self._resume_cb)
                        break

                # A delay: arm the reusable sleep timeout exactly as
                # ``Timeout.__init__`` schedules a fresh one (same
                # sequence number, same push, same probe hook).
                if not yielded >= 0:  # negative or NaN
                    event = self._bad_yield(f"yielded a bad delay: {yielded!r}")
                    continue
                sleep = self._sleep
                sleep.callbacks = self._sleep_cbs
                sleep._processed = False
                sleep.delay = yielded
                at = env._now + yielded
                seq = env._seq
                env._seq = seq + 1
                queue = env._queue
                if type(queue) is list:
                    heappush(queue, (at, NORMAL, seq, sleep))
                else:
                    queue.push((at, NORMAL, seq, sleep))
                if env.probe is not None:
                    env.probe.on_schedule(env, sleep, at, NORMAL)
                self._target = sleep
                break
        finally:
            env._active_proc = None

    def _bad_yield(self, what: str) -> Event:
        """A failed pseudo-event that throws ``what`` into the generator."""
        event = Event(self.env)
        event._ok = False
        event._value = SimulationError(f"process {self.name!r} {what}")
        return event


class Environment:
    """A simulation environment: clock + event calendar + process factory.

    An optional :class:`~repro.des.probe.Probe` observes scheduling,
    steps, and process switches (see :mod:`repro.des.probe`). With no
    probe attached the hook sites cost one ``is None`` check each, and
    event ordering is bit-identical to an unprobed environment either
    way — probes observe, they never schedule.
    """

    def __init__(
        self,
        initial_time: float = 0.0,
        probe: Optional["Probe"] = None,
        core: Optional[str] = None,
    ) -> None:
        if core is None:
            core = default_core()
        if core not in CORES:
            raise ValueError(f"unknown DES core {core!r}; expected one of {CORES}")
        self._now = float(initial_time)
        self.core = core
        # Both cores hold ``(time, priority, seq, event)`` entries and
        # serve them in identical tuple order; dispatch is by concrete
        # type (``type(q) is list``) so the heap path stays branch-cheap.
        self._queue: Any = [] if core == "heap" else CalendarQueue()
        self._seq = 0
        self._active_proc: Optional[Process] = None
        self.probe = probe

    # -- clock ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_proc

    # -- event factories ----------------------------------------------------
    def event(self) -> Event:
        """Create a new untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that triggers ``delay`` seconds from now.

        A process that only sleeps can ``yield delay`` instead (see
        :class:`Process`); this is the form to compose, share or give a
        ``value``.
        """
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: Optional[str] = None) -> Process:
        """Start a new process driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ---------------------------------------------------------
    def schedule(self, event: Event, priority: int = NORMAL, delay: float = 0.0) -> None:
        """Push a triggered event onto the calendar ``delay`` from now."""
        at = self._now + delay
        seq = self._seq
        self._seq = seq + 1
        queue = self._queue
        if type(queue) is list:
            heappush(queue, (at, priority, seq, event))
        else:
            queue.push((at, priority, seq, event))
        if self.probe is not None:
            self.probe.on_schedule(self, event, at, priority)

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        queue = self._queue
        if type(queue) is list:
            return queue[0][0] if queue else float("inf")
        return queue.peek_time()

    def step(self) -> None:
        """Process the next event on the calendar."""
        queue = self._queue
        if not queue:
            raise EmptySchedule("no scheduled events remain")
        if type(queue) is list:
            self._now, _, _, event = heappop(queue)
        else:
            self._now, _, _, event = queue.pop()

        if self.probe is not None:
            self.probe.on_step(self, self._now, event)

        callbacks = event.callbacks
        event.callbacks = None  # callbacks added after processing are an error
        event._processed = True
        for callback in callbacks:
            callback(event)

        # An unhandled failure (no process waited on the event) must surface.
        if not event._ok and not callbacks:
            raise event._value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the calendar drains), a number
        (run until that simulated time), or an :class:`Event` (run until it
        is processed and return its value; raise if it failed).
        """
        stop_event: Optional[Event] = None
        if until is not None:
            if isinstance(until, Event):
                stop_event = until
            else:
                at = float(until)
                if not at >= self._now:
                    raise SimulationError(
                        f"until={at} is NaN or lies in the past (now={self._now})"
                    )
                stop_event = Event(self)
                stop_event._ok = True
                stop_event._value = None
                stop_event._triggered = True
                entry = (at, 0, -1, stop_event)
                if type(self._queue) is list:
                    heappush(self._queue, entry)
                else:
                    self._queue.push(entry)

        if stop_event is not None:
            if stop_event._processed:
                if not stop_event._ok:
                    raise stop_event._value
                return stop_event._value
            assert stop_event.callbacks is not None
            stop_event.callbacks.append(self._stop_callback)

        # The event loop is inlined here (rather than calling self.step()
        # per event) — at hundreds of thousands of events per run the
        # method-call overhead dominates. Semantics are identical to
        # step(); the probe hook keeps its exact call points. Each core
        # gets its own loop so the hot path carries no per-event
        # type dispatch: the heap loop indexes a plain list, the
        # calendar loop calls the queue's bound ``pop`` and turns its
        # IndexError into the same EmptySchedule as an empty heap.
        queue = self._queue
        try:
            if type(queue) is list:
                pop = heappop
                while True:
                    if not queue:
                        raise EmptySchedule("no scheduled events remain")
                    self._now, _, _, event = pop(queue)

                    if self.probe is not None:
                        self.probe.on_step(self, self._now, event)

                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)

                    if not event._ok and not callbacks:
                        raise event._value
            else:
                pop_entry = queue.pop
                while True:
                    try:
                        self._now, _, _, event = pop_entry()
                    except IndexError:
                        raise EmptySchedule("no scheduled events remain") from None

                    if self.probe is not None:
                        self.probe.on_step(self, self._now, event)

                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    for callback in callbacks:
                        callback(event)

                    if not event._ok and not callbacks:
                        raise event._value
        except EmptySchedule:
            if stop_event is not None and not stop_event._processed:
                if isinstance(until, Event):
                    raise SimulationError(
                        "simulation drained before the until-event triggered"
                    ) from None
            return None
        except StopProcess:
            assert stop_event is not None
            if not stop_event._ok:
                raise stop_event._value
            return stop_event._value

    @staticmethod
    def _stop_callback(event: Event) -> None:
        raise StopProcess()
