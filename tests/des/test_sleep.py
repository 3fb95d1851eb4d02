"""``yield delay``: the allocation-free sleep, and its equivalence to
``yield env.timeout(delay)``.

A process that yields a plain float re-arms one private :class:`Timeout`
instead of allocating a fresh one. Everything observable — event order,
sequence numbers, probe hooks, wake times — must be the same as with the
``env.timeout`` form, on both event cores.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import CORES, CountingProbe, Environment, Interrupt, Timeout
from repro.des.events import NORMAL
from repro.des.probe import Probe
from repro.errors import SimulationError
from tests.des.goldens import TraceRecorder

# -- equivalence property ----------------------------------------------------
# Few distinct delays, so equal-time ties between processes are common.
_DELAYS = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.0, 1.5, 2.0])
_CHILD_OPS = st.lists(st.tuples(st.just("wait"), _DELAYS), max_size=3)
_OPS = st.one_of(
    st.tuples(st.just("wait"), _DELAYS),
    st.tuples(st.just("spawn"), _CHILD_OPS),
    st.tuples(st.just("interrupt"), st.integers(min_value=0, max_value=5)),
    st.tuples(st.just("any_of"), _DELAYS, _DELAYS),
    st.tuples(st.just("join_child"),),
)
_PROGRAMS = st.lists(st.lists(_OPS, max_size=8), min_size=1, max_size=6)


def _run_program(programs, core: str, sleep_form: bool):
    """Run ``programs`` (one op list per top-level process); return what
    the engine did (trace digest) and what the processes saw (journal)."""
    recorder = TraceRecorder()
    env = Environment(probe=recorder, core=core)
    journal = []
    procs = []

    def wait(delay):
        return delay if sleep_form else env.timeout(delay)

    def child(name, ops):
        for _, delay in ops:
            yield wait(delay)
            journal.append((name, env.now))
        return name

    def body(index, ops):
        # Start with a wait: every top-level process is past its
        # Initialize event before the first interrupt can be sent.
        try:
            yield wait(0.0)
        except Interrupt as interrupt:
            journal.append((index, "start", "interrupted", interrupt.cause))
        last_child = None
        for step, op in enumerate(ops):
            try:
                if op[0] == "wait":
                    yield wait(op[1])
                elif op[0] == "spawn":
                    last_child = env.process(child(f"p{index}.c{step}", op[1]))
                elif op[0] == "interrupt":
                    victim = procs[op[1] % len(procs)]
                    if victim.is_alive and victim is not env.active_process:
                        victim.interrupt(cause=(index, step))
                elif op[0] == "any_of":
                    # env.timeout stays the composable form in both runs;
                    # only the plain waits around it differ.
                    first = env.timeout(op[1], value="a")
                    got = yield env.any_of([first, env.timeout(op[2], value="b")])
                    journal.append((index, step, sorted(got.todict().values())))
                elif op[0] == "join_child" and last_child is not None:
                    journal.append((index, step, (yield last_child)))
            except Interrupt as interrupt:
                journal.append((index, step, "interrupted", interrupt.cause))
            journal.append((index, step, env.now))

    for index, ops in enumerate(programs):
        procs.append(env.process(body(index, ops)))
    env.run()
    return recorder.digest(), journal, env.now


@pytest.mark.parametrize("core", CORES)
@settings(max_examples=150, deadline=None)
@given(programs=_PROGRAMS)
def test_sleep_and_timeout_forms_produce_the_same_trace(core, programs):
    assert _run_program(programs, core, True) == _run_program(programs, core, False)


# -- interrupts ---------------------------------------------------------------
def _interrupted_sleeper(core: str, sleep_form: bool, second: float):
    """Sleep 10, get interrupted at t=1, sleep ``second``, then sleep 20."""
    probe = CountingProbe()
    env = Environment(probe=probe, core=core)
    woke = []

    def wait(delay):
        return delay if sleep_form else env.timeout(delay)

    def sleeper():
        try:
            yield wait(10.0)
            woke.append(("uninterrupted", env.now))
        except Interrupt:
            woke.append(("interrupted", env.now))
        yield wait(second)
        woke.append(("second", env.now))
        yield wait(20.0)
        woke.append(("third", env.now))

    def interrupter(victim):
        yield wait(1.0)
        victim.interrupt()

    env.process(interrupter(env.process(sleeper())))
    env.run()
    return woke, (probe.scheduled, probe.processed, probe.switches, probe.max_heap)


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("second", [2.0, 15.0], ids=["shorter", "longer"])
def test_interrupted_sleep_leaves_a_stale_entry_that_wakes_nobody(core, second):
    woke, counts = _interrupted_sleeper(core, True, second)
    # The stale t=10 entry falls inside the second (longer) or third
    # (shorter) sleep; either way nobody wakes at t=10.
    assert woke == [
        ("interrupted", 1.0),
        ("second", 1.0 + second),
        ("third", 21.0 + second),
    ]
    # The stale entry still pops, as a detached Timeout does.
    assert (woke, counts) == _interrupted_sleeper(core, False, second)


def test_interrupt_retires_the_armed_sleep_object():
    env = Environment()
    targets = []

    def sleeper():
        try:
            yield 10.0
        except Interrupt:
            pass
        yield 2.0

    def interrupter(victim):
        yield 1.0
        targets.append(victim.target)
        victim.interrupt()
        yield 0.5
        targets.append(victim.target)

    env.process(interrupter(env.process(sleeper())))
    env.run()
    retired, fresh = targets
    assert retired is not fresh
    assert retired.processed and fresh.processed  # the stale entry did pop
    assert (retired.delay, fresh.delay) == (10.0, 2.0)


def test_two_interrupts_at_the_same_instant():
    env = Environment()
    seen = []

    def sleeper():
        for _ in range(3):
            try:
                yield 5.0
                seen.append(("woke", env.now))
            except Interrupt as interrupt:
                seen.append((interrupt.cause, env.now))

    def interrupter(victim):
        yield 1.0
        victim.interrupt("first")
        victim.interrupt("second")

    env.process(interrupter(env.process(sleeper())))
    env.run()
    assert seen == [("first", 1.0), ("second", 1.0), ("woke", 6.0)]


# -- what a sleeping process looks like ---------------------------------------
def test_target_of_a_sleeping_process_is_its_timeout():
    env = Environment()

    def sleeper():
        yield 3.0
        yield 4.0

    proc = env.process(sleeper())
    env.run(until=1.0)
    first = proc.target
    assert type(first) is Timeout
    assert first.delay == 3.0 and first.triggered and not first.processed
    env.run(until=5.0)
    assert proc.target is first  # re-armed, not re-allocated
    assert first.delay == 4.0 and not first.processed
    env.run()
    assert first.processed and not proc.is_alive


@pytest.mark.parametrize("core", CORES)
def test_run_until_lands_mid_sleep_and_resumes(core):
    env = Environment(core=core)
    ticks = []

    def ticker():
        while True:
            yield 1.0
            ticks.append(env.now)

    env.process(ticker())
    env.run(until=2.5)
    assert env.now == 2.5 and ticks == [1.0, 2.0]
    assert env.peek() == 3.0
    env.run(until=4.25)
    assert env.now == 4.25 and ticks == [1.0, 2.0, 3.0, 4.0]


def test_sleep_resumes_with_none_and_zero_delay_yields_to_peers():
    env = Environment()
    order = []

    def proc(name):
        got = yield 0.0
        order.append((name, env.now, got))
        got = yield 0.0
        order.append((name, env.now, got))

    env.process(proc("a"))
    env.process(proc("b"))
    env.run()
    assert order == [("a", 0.0, None), ("b", 0.0, None)] * 2


class _Recording(Probe):
    def __init__(self):
        self.scheduled, self.stepped = [], []

    def on_schedule(self, env, event, time, priority):
        self.scheduled.append((type(event).__name__, time, priority))

    def on_step(self, env, time, event):
        self.stepped.append((type(event).__name__, time))


@pytest.mark.parametrize("core", CORES)
def test_probe_sees_a_timeout_for_each_sleep(core):
    def run(sleep_form):
        probe = _Recording()
        env = Environment(probe=probe, core=core)

        def proc():
            yield (1.5 if sleep_form else env.timeout(1.5))
            yield (0.25 if sleep_form else env.timeout(0.25))

        env.process(proc())
        env.run()
        return probe.scheduled, probe.stepped

    scheduled, stepped = run(True)
    assert ("Timeout", 1.5, NORMAL) in scheduled and ("Timeout", 1.75, NORMAL) in scheduled
    assert stepped.count(("Timeout", 1.5)) == 1 and stepped.count(("Timeout", 1.75)) == 1
    assert (scheduled, stepped) == run(False)


# -- what may be yielded ---------------------------------------------------------
def test_int_and_float_subclass_delays_are_accepted():
    import numpy as np

    env = Environment()
    woke = []

    def proc():
        yield 2
        woke.append(env.now)
        yield np.float64(0.5)
        woke.append(env.now)
        yield 0
        woke.append(env.now)

    proc = env.process(proc())
    env.run()
    assert woke == [2.0, 2.5, 2.5]
    assert type(env.now) is float and type(proc.target.delay) is float


@pytest.mark.parametrize(
    "bad", [-1.0, -1, float("nan"), True, False, "1.0", None, [1.0]], ids=repr
)
def test_bad_delays_are_thrown_into_the_generator(bad):
    env = Environment()
    seen = []

    def proc():
        try:
            yield bad
        except SimulationError as exc:
            seen.append(str(exc))
        # The process carries on, and its next wait is a real wait.
        got = yield env.timeout(5.0, value="five")
        seen.append((env.now, got))
        yield 1.0
        seen.append(env.now)

    env.process(proc(), name="culprit")
    env.run()
    assert "culprit" in seen[0] and repr(bad) in seen[0]
    assert seen[1:] == [(5.0, "five"), 6.0]
    assert not math.isnan(env.now)


def test_uncaught_bad_delay_fails_the_process():
    env = Environment()

    def proc():
        yield -0.5

    failed = env.process(proc())
    with pytest.raises(SimulationError, match="bad delay"):
        env.run()
    assert not failed.ok


# -- NaN never reaches the clock ---------------------------------------------------
def test_nan_timeout_is_rejected():
    env = Environment()
    with pytest.raises(SimulationError):
        env.timeout(float("nan"))
    assert env.peek() == float("inf")  # nothing was scheduled


def test_run_until_nan_is_rejected():
    env = Environment()
    env.timeout(1.0)
    with pytest.raises(SimulationError):
        env.run(until=float("nan"))
    env.run()
    assert env.now == 1.0
