"""Injector + fault-state behaviour driven through a real DES environment."""

import pytest

from repro.des import Environment
from repro.errors import BackendUnavailableError
from repro.faults import FaultInjector, FaultKind, FaultPlan, FaultSpec, FaultState
from repro.telemetry import Telemetry
from repro.telemetry.events import EventKind, EventLog


def _run(plan, event_log=None, seed=0):
    env = Environment()
    state = FaultState(seed=seed)
    injector = FaultInjector(env, plan, state, event_log=event_log)
    injector.start()
    env.run()
    return env, state, injector


def test_windows_open_and_close_at_planned_times():
    plan = FaultPlan(
        faults=[FaultSpec(kind=FaultKind.BACKEND_CRASH, at=2.0, duration=3.0)]
    )
    env = Environment()
    state = FaultState()
    FaultInjector(env, plan, state).start()

    observed = {}

    def probe(env):
        yield env.timeout(1.0)
        observed["before"] = state.backend_down  # t=1
        yield env.timeout(1.5)
        observed["during"] = state.backend_down  # t=2.5
        yield env.timeout(3.0)
        observed["after"] = state.backend_down  # t=5.5

    env.process(probe(env))
    env.run()
    assert observed == {"before": False, "during": True, "after": False}


def test_injected_records_and_summary():
    plan = FaultPlan(
        faults=[
            FaultSpec(kind=FaultKind.BACKEND_CRASH, at=1.0, duration=2.0),
            FaultSpec(kind=FaultKind.NODE_CRASH, at=4.0, duration=1.0, target="sim"),
        ]
    )
    _, state, injector = _run(plan)
    assert [rec.spec.kind for rec in injector.injected] == [
        FaultKind.BACKEND_CRASH,
        FaultKind.NODE_CRASH,
    ]
    assert [rec.recovery_latency for rec in injector.injected] == [2.0, 1.0]
    summary = injector.summary()
    assert summary["injected"] == 2
    assert summary["recovered"] == 2
    assert summary["by_kind"] == {"backend_crash": 1, "node_crash": 1}
    assert summary["mean_recovery_seconds"] == pytest.approx(1.5)
    assert summary["max_recovery_seconds"] == pytest.approx(2.0)


def test_permanent_fault_never_recovers():
    plan = FaultPlan(faults=[FaultSpec(kind=FaultKind.BACKEND_CRASH, at=1.0)])
    _, state, injector = _run(plan)
    assert state.backend_down
    assert injector.injected[0].recovered_at is None
    assert injector.summary()["recovered"] == 0


def test_event_log_gets_fault_records():
    log = EventLog()
    plan = FaultPlan(
        faults=[FaultSpec(kind=FaultKind.NODE_CRASH, at=0.5, duration=1.5, target="sim0")]
    )
    _run(plan, event_log=log)
    records = list(log.filter(kind=EventKind.FAULT))
    assert len(records) == 1
    assert records[0].start == 0.5
    assert records[0].duration == 1.5
    assert records[0].key == "node_crash:sim0"


def test_telemetry_instants_and_metrics():
    """The hub derives the fault markers and metrics from the injector's
    records when the run ends: one ``fault.inject`` per injected fault,
    one ``fault.recover`` and one recovery observation per healed one."""
    plan = FaultPlan(
        faults=[
            FaultSpec(kind=FaultKind.BACKEND_CRASH, at=1.0, duration=1.0),
            FaultSpec(kind=FaultKind.NODE_CRASH, at=1.5, duration=0.25, target="sim"),
            FaultSpec(kind=FaultKind.BACKEND_CRASH, at=3.0),  # never heals
        ]
    )
    log = EventLog()
    _, _, injector = _run(plan, event_log=log)
    telemetry = Telemetry()
    telemetry.record_run(log, "redis", injector=injector)
    marks = [
        (e.name, e.time, e.pid, e.category, e.args["kind"], e.args["target"],
         e.args.get("latency"))
        for e in telemetry.tracer.instants
    ]
    assert sorted(marks) == [
        ("fault.inject", 1.0, "faults", "fault", "backend_crash", "", None),
        ("fault.inject", 1.5, "faults", "fault", "node_crash", "sim", None),
        ("fault.inject", 3.0, "faults", "fault", "backend_crash", "", None),
        ("fault.recover", 1.75, "faults", "fault", "node_crash", "sim", 0.25),
        ("fault.recover", 2.0, "faults", "fault", "backend_crash", "", 1.0),
    ]
    metrics = telemetry.metrics
    assert metrics.get("faults.injected{kind=backend_crash}").value == 2
    assert metrics.get("faults.injected{kind=node_crash}").value == 1
    assert metrics.get("faults.recovery.seconds{kind=backend_crash}").count == 1
    assert metrics.get("faults.recovery.seconds{kind=node_crash}").sum == 0.25


# ---------------------------------------------------------------------------
# FaultState mechanics
# ---------------------------------------------------------------------------


def test_overlapping_windows_refcounted():
    state = FaultState()
    a = FaultSpec(kind=FaultKind.BACKEND_CRASH, at=0.0, duration=5.0)
    b = FaultSpec(kind=FaultKind.BACKEND_CRASH, at=1.0, duration=1.0)
    state.apply(a)
    state.apply(b)
    state.revert(b)
    assert state.backend_down  # a still open
    state.revert(a)
    assert not state.backend_down


def test_slowdowns_stack_multiplicatively():
    state = FaultState()
    state.apply(FaultSpec(kind=FaultKind.LINK_DEGRADE, at=0.0, severity=2.0))
    state.apply(FaultSpec(kind=FaultKind.LINK_DEGRADE, at=0.0, severity=3.0))
    assert state.delay_factor("redis") == pytest.approx(6.0)


def test_ost_stall_only_hits_filesystem():
    state = FaultState()
    state.apply(FaultSpec(kind=FaultKind.OST_STALL, at=0.0, severity=10.0))
    assert state.delay_factor("filesystem") == pytest.approx(10.0)
    assert state.delay_factor("redis") == pytest.approx(1.0)


def test_partition_targets_one_component():
    state = FaultState()
    state.apply(FaultSpec(kind=FaultKind.PARTITION, at=0.0, target="train"))
    assert isinstance(state.failure_for("train", "redis"), BackendUnavailableError)
    assert state.failure_for("sim", "redis") is None


def test_no_rng_draws_without_open_windows():
    """Healthy runs must consume no randomness from the fault stream."""
    state = FaultState(seed=42)
    before = state._rng.bit_generator.state
    for _ in range(100):
        assert not state.drops_message()
        assert not state.corrupts_message("k")
    assert state._rng.bit_generator.state == before


def test_corruption_consumed_once():
    state = FaultState(seed=0)
    state.apply(FaultSpec(kind=FaultKind.MESSAGE_CORRUPT, at=0.0, severity=1.0))
    assert state.corrupts_message("key")
    assert state.consume_corruption("key")
    assert not state.consume_corruption("key")  # retry reads a clean copy
