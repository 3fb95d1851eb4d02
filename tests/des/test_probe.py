"""Tests for DES engine probes and the periodic gauge sampler."""

import pytest

from repro.des import (
    Container,
    CountingProbe,
    Environment,
    MultiProbe,
    PeriodicSampler,
    Probe,
    Resource,
    Store,
    attach_probe,
)
from repro.errors import SimulationError
from repro.telemetry import EventKind, EventLog, Telemetry, VirtualClock
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.tracing import Tracer


def ticker(env, n=5, dt=1.0):
    for _ in range(n):
        yield env.timeout(dt)


def test_environment_defaults_to_no_probe():
    assert Environment().probe is None


def test_counting_probe_sees_schedule_step_and_switch():
    probe = CountingProbe()
    env = Environment(probe=probe)
    env.process(ticker(env, n=3))
    env.run()
    assert probe.scheduled > 0
    assert probe.processed > 0
    assert probe.switches >= 3  # at least one resume per timeout
    assert probe.max_heap >= 1


def test_probe_base_class_hooks_are_noops():
    env = Environment(probe=Probe())
    env.process(ticker(env, n=2))
    env.run()
    assert env.now == 2.0


def test_probe_does_not_change_event_ordering():
    def run(probe):
        env = Environment(probe=probe)
        order = []

        def proc(env, name, dt):
            for i in range(4):
                yield env.timeout(dt)
                order.append((name, env.now))

        env.process(proc(env, "a", 0.5))
        env.process(proc(env, "b", 0.7))
        env.run()
        return order

    assert run(None) == run(CountingProbe())


def test_attach_probe_stacks_into_multiprobe():
    env = Environment()
    first = CountingProbe()
    second = CountingProbe()
    attach_probe(env, first)
    assert env.probe is first
    attach_probe(env, second)
    assert isinstance(env.probe, MultiProbe)
    env.process(ticker(env, n=2))
    env.run()
    assert first.processed == second.processed > 0
    third = CountingProbe()
    attach_probe(env, third)  # extends the existing MultiProbe
    assert env.probe.probes == [first, second, third]


def test_sampler_rejects_bad_interval():
    with pytest.raises(SimulationError, match="interval"):
        PeriodicSampler(0.0)


def test_sampler_records_resource_gauge_series():
    env = Environment()
    res = Resource(env, capacity=1)
    sampler = PeriodicSampler(0.5, metrics=MetricsRegistry())
    sampler.watch_resource("gpu", res)
    attach_probe(env, sampler)

    def user(env, res, hold):
        with res.request() as req:
            yield req
            yield env.timeout(hold)

    # Three contenders for one slot -> queue depth must be visible.
    for _ in range(3):
        env.process(user(env, res, 2.0))
    env.run()

    in_use = sampler.series("gpu.in_use")
    depth = sampler.series("gpu.queue_depth")
    assert sampler.samples_taken > 0
    assert max(v for _, v in in_use) == 1.0
    assert max(v for _, v in depth) >= 1.0  # nonzero queue-depth samples
    times = [t for t, _ in in_use]
    assert times == sorted(times)
    with pytest.raises(SimulationError, match="no sampled gauge"):
        sampler.series("missing")


def test_sampler_watch_store_container_and_heap():
    env = Environment()
    store = Store(env, capacity=10)
    tank = Container(env, capacity=100.0, init=25.0)
    sampler = PeriodicSampler(1.0)
    sampler.watch_store("stage", store)
    sampler.watch_container("mem", tank)
    sampler.watch_heap(env)
    attach_probe(env, sampler)

    def producer(env, store):
        for i in range(4):
            yield env.timeout(1.0)
            yield store.put(f"item{i}")

    env.process(producer(env, store))
    env.run()
    assert max(v for _, v in sampler.series("stage.level")) >= 1.0
    assert all(v == 25.0 for _, v in sampler.series("mem.level"))
    # Sampled right after a pop; with a single process the heap can be
    # empty at that instant, so only the series' existence is guaranteed.
    assert sampler.series("des.event_queue")


def test_sampler_no_catch_up_burst_after_quiet_stretch():
    env = Environment()
    sampler = PeriodicSampler(0.1)
    sampler.add_source("const", lambda: 1.0)
    attach_probe(env, sampler)

    def sparse(env):
        yield env.timeout(10.0)  # one long quiet stretch
        yield env.timeout(10.0)

    env.process(sparse(env))
    env.run()
    # One sample per processed step at most — not 100 catch-up samples.
    assert sampler.samples_taken <= 4


def test_sampler_emits_tracer_counters_and_spans():
    env = Environment()
    tracer = Tracer(VirtualClock())
    sampler = PeriodicSampler(1.0, tracer=tracer)
    sampler.add_source("x", lambda: 2.0)
    attach_probe(env, sampler)
    env.process(ticker(env, n=3))
    env.run()
    assert any(c.name == "x" and c.values == {"value": 2.0} for c in tracer.counters)
    des_spans = tracer.finished_spans(category="des")
    assert des_spans and all(s.name == "des.sample" for s in des_spans)


def test_telemetry_bind_environment_records_engine_series():
    # Acceptance: a DES run exposes link-occupancy and queue-depth gauge
    # series with nonzero samples (full-pattern version lives in
    # tests/workloads/test_patterns_telemetry.py).
    telemetry = Telemetry(sample_interval=0.5)
    env = Environment()
    log = EventLog()
    sampler = telemetry.bind_environment(env)
    res = Resource(env, capacity=1)
    sampler.watch_resource("link", res)

    def user(env, res, rank):
        with res.request() as req:
            yield req
            start = env.now
            yield env.timeout(1.0)
            log.add("client", EventKind.WRITE, start, env.now - start, rank, 1.0, "k")

    for rank in range(3):
        env.process(user(env, res, rank))
    env.run()
    telemetry.record_run(log, "test")

    occupancy = telemetry.metrics.gauge("link.occupancy")
    assert occupancy.nonzero_samples()  # one sample per change, nonzero
    assert occupancy.max_sample == 1.0 and occupancy.value == 0.0
    depth = sampler.series("link.queue_depth")
    assert max(v for _, v in depth) >= 1.0
    heap = sampler.series("des.event_queue")
    assert heap and max(v for _, v in heap) >= 1.0
    # Virtual clock got bound: tracer timestamps are simulated seconds.
    assert telemetry.now() == env.now
