"""Invariants of the telemetry a hub derives from a run's records.

An iteration is one COMPUTE/TRAIN row and a transport op one
WRITE/READ/POLL row of the run's :class:`~repro.telemetry.events.
EventLog`; a fault is one of the injector's ``InjectedFault`` records
and a failed attempt one of ``ResilienceStats.failed``. The hub's
spans, markers and metrics are derived from those records when the run
ends. These tests hold the derived series to the records, for both
patterns on every backend and on two chaos cells.
"""

import functools
from bisect import bisect_right
from collections import Counter

import pytest

from repro.errors import ConfigError, ReproError
from repro.experiments import ext_faults
from repro.experiments.common import backend_models, pattern1_context
from repro.telemetry import EventKind, EventLog, Telemetry
from repro.workloads import patterns
from repro.workloads.patterns import (
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)

OPS = (EventKind.WRITE, EventKind.READ, EventKind.POLL)
WIRE = (EventKind.WRITE, EventKind.READ)
ITERATIONS = (EventKind.COMPUTE, EventKind.TRAIN)
BACKENDS = list(backend_models())
ONE_TO_ONE = dict(train_iterations=60, write_interval=10, read_interval=10)
MANY_TO_ONE = dict(n_simulations=15, train_iterations=40)


def one_to_one(backend, telemetry=None):
    return run_one_to_one(
        backend_models()[backend], OneToOneConfig(**ONE_TO_ONE),
        ctx=pattern1_context(8), telemetry=telemetry,
    )


def many_to_one(backend, telemetry=None):
    return run_many_to_one(
        backend_models()[backend], ManyToOneConfig(**MANY_TO_ONE), telemetry=telemetry
    )


#: (pattern runner, the most WRITE/READ ops its tracks can have open).
#: Pattern 2's trainer reads over ``reader_lanes`` concurrent lanes that
#: all log on its one track, so its bound is the tracks plus the extra lanes.
RUNS = {
    "one-to-one": (one_to_one, lambda tracks: tracks),
    "many-to-one": (
        many_to_one,
        lambda tracks: tracks + min(ManyToOneConfig().reader_lanes, MANY_TO_ONE["n_simulations"]) - 1,
    ),
}
#: Pattern 2 on node-local is refused before it runs (tested below).
CASES = [
    (pattern, backend) for pattern in RUNS for backend in BACKENDS
    if (pattern, backend) != ("many-to-one", "node-local")
]


@functools.lru_cache(maxsize=None)
def _horizon(pattern):
    return ext_faults.baseline_point(pattern, "redis", 0)[0]


def chaos(pattern, telemetry=None):
    """The chaos sweep's redis cell at fault rate 0.1 (``ext_faults.cell_point``)."""
    faulty = dict(
        telemetry=telemetry,
        fault_plan=ext_faults.chaos_plan(0.1, horizon=_horizon(pattern), pattern=pattern, seed=0),
        resilience=ext_faults.chaos_resilience(pattern),
    )
    model = backend_models()["redis"]
    if pattern == 1:
        return run_one_to_one(model, ext_faults._p1_config(0), ctx=pattern1_context(8), **faulty)
    return run_many_to_one(model, ext_faults._p2_config(0), **faulty)


CHAOS = {"chaos-p1": lambda backend, telemetry=None: chaos(1, telemetry),
         "chaos-p2": lambda backend, telemetry=None: chaos(2, telemetry)}
CHAOS_CASES = [(pattern, "redis") for pattern in CHAOS]


def run(pattern, backend, telemetry=None):
    runner = CHAOS[pattern] if pattern in CHAOS else RUNS[pattern][0]
    return runner(backend, telemetry=telemetry)


def traced(pattern, backend):
    hub = Telemetry()
    result = run(pattern, backend, telemetry=hub)
    return hub, result.log


class Recording(Telemetry):
    """A hub that keeps the records its run handed to the derive pass."""

    def record_run(self, log, backend, **records):
        self.records = records
        super().record_run(log, backend, **records)


def op_rows(log, kinds=OPS):
    return [r for r in log if r.kind in kinds]


def transport_spans(hub):
    return hub.tracer.finished_spans(category="transport")


def iteration_spans(hub):
    return hub.tracer.finished_spans(category="workload")


def assert_iterations_are_the_rows(hub, log):
    """One ``iteration.<component>`` span per COMPUTE/TRAIN row, in log
    order, on its track, numbered by its 1-based position there."""
    ordinals = Counter()
    expected = []
    for r in log:
        if r.kind in ITERATIONS:
            ordinals[r.component, r.rank] += 1
            expected.append((f"iteration.{r.component}", r.component, r.rank, r.start,
                             r.start + r.duration, ordinals[r.component, r.rank]))
    assert expected
    spans = iteration_spans(hub)
    assert [(s.name, s.pid, s.tid, s.start, s.end, s.args["iteration"]) for s in spans] == expected
    assert all(s.parent is None for s in spans)


@pytest.mark.parametrize("pattern, backend", CASES)
def test_iteration_spans_are_the_compute_and_train_rows_one_for_one(pattern, backend):
    assert_iterations_are_the_rows(*traced(pattern, backend))


@pytest.mark.parametrize("pattern, backend", CASES)
def test_spans_are_the_transport_rows_one_for_one(pattern, backend):
    hub, log = traced(pattern, backend)
    rows = op_rows(log)
    assert rows
    assert [
        (s.name, s.pid, s.tid, s.start, s.end, s.args["key"], s.args["nbytes"], s.args["backend"])
        for s in transport_spans(hub)
    ] == [
        (f"transport.{r.kind.value}", r.component, r.rank, r.start, r.start + r.duration,
         r.key, r.nbytes, backend)
        for r in rows
    ]


@pytest.mark.parametrize("pattern, backend", CASES)
def test_transport_counters_add_up_to_the_log(pattern, backend):
    hub, log = traced(pattern, backend)
    for kind in OPS:
        rows = log.filter(kind=kind)
        assert rows
        name = f"transport.{kind.value}.{{}}{{{{backend={backend}}}}}"
        ops, seconds = hub.metrics.get(name.format("ops")), hub.metrics.get(name.format("seconds"))
        assert ops.value == len(rows) == seconds.count
        assert seconds.sum == pytest.approx(sum(rows.durations()), rel=1e-12)
        if kind in WIRE:
            counted = hub.metrics.get(name.format("bytes"))
            assert counted.value == pytest.approx(rows.total_bytes(), rel=1e-12)
    # A poll moves no bytes, so it has no bytes counter at all.
    assert f"transport.poll.bytes{{backend={backend}}}" not in hub.metrics


def test_pattern_2_on_node_local_is_refused_before_the_clock_starts():
    # Node-local staging cannot be read from the trainer's node, so no
    # read could ever succeed: the run is a config error, not a run of
    # missed reads, and the hub sees nothing.
    hub = Telemetry()
    with pytest.raises(ConfigError, match="'node-local' cannot serve the trainer's reads"):
        many_to_one("node-local", telemetry=hub)
    assert hub.tracer.finished_spans() == []
    assert hub.metrics.names() == []


@pytest.mark.parametrize("pattern, backend", CASES)
def test_link_occupancy_is_the_open_wire_ops(pattern, backend):
    hub, log = traced(pattern, backend)
    rows = op_rows(log, WIRE)
    starts = sorted(r.start for r in rows)
    ends = sorted(r.start + r.duration for r in rows)
    gauge = hub.metrics.gauge("link.occupancy")
    samples = gauge.samples
    assert samples and gauge.value == 0.0 and samples[-1][1] == 0.0
    assert all(v >= 0 for _, v in samples)
    times = [t for t, _ in samples]
    assert times == sorted(set(times))  # one sample per instant
    levels = [v for _, v in samples]
    assert all(a != b for a, b in zip(levels, levels[1:]))  # only where it changes
    for t, v in samples:
        assert v == bisect_right(starts, t) - bisect_right(ends, t)
    tracks = {(r.component, r.rank) for r in rows}
    assert gauge.max_sample <= RUNS[pattern][1](len(tracks))
    # The tracer's counter track carries the same series.
    counters = [(c.time, c.values["value"]) for c in hub.tracer.counters if c.name == "link.occupancy"]
    assert counters == samples


@pytest.mark.parametrize("pattern, backend", CASES + CHAOS_CASES)
def test_a_traced_run_logs_what_an_untraced_run_logs(pattern, backend):
    untraced = run(pattern, backend)
    traced_result = run(pattern, backend, telemetry=Telemetry())
    assert traced_result.log.to_jsonl() == untraced.log.to_jsonl()
    assert traced_result.resilience == untraced.resilience


@pytest.mark.parametrize("pattern", [1, 2])
def test_fault_markers_and_metrics_are_the_injectors_records(pattern):
    hub = Recording()
    result = chaos(pattern, telemetry=hub)
    injected = hub.records["injector"].injected
    assert len(injected) == result.resilience["faults"]["injected"] > 0

    def mark(name, t, fault, *extra):
        spec = fault.spec
        return (name, t, "faults", spec.kind.value, spec.target, spec.severity, *extra)

    healed = [f for f in injected if f.recovered_at is not None]
    assert healed
    assert sorted(
        (e.name, e.time, e.pid, e.args["kind"], e.args["target"], e.args["severity"],
         *([e.args["latency"]] if "latency" in e.args else []))
        for e in hub.tracer.instants if e.category == "fault"
    ) == sorted(
        [mark("fault.inject", f.injected_at, f) for f in injected]
        + [mark("fault.recover", f.recovered_at, f, f.recovery_latency) for f in healed]
    )
    for kind, n in Counter(f.spec.kind.value for f in injected).items():
        assert hub.metrics.get(f"faults.injected{{kind={kind}}}").value == n
        latencies = [f.recovery_latency for f in healed if f.spec.kind.value == kind]
        recovery = hub.metrics.get(f"faults.recovery.seconds{{kind={kind}}}")
        assert recovery.count == len(latencies)
        assert recovery.sum == pytest.approx(sum(latencies), rel=1e-12)


@pytest.mark.parametrize("pattern", [1, 2])
def test_retry_markers_and_counters_are_the_resilience_records(pattern):
    hub = Recording()
    result = chaos(pattern, telemetry=hub)
    (stats,) = hub.records["resilience"]
    reported = result.resilience["stats"]
    assert (stats.retries, stats.giveups) == (reported["retries"], reported["giveups"])
    assert stats.retries > 0 and stats.giveups > 0
    retried = [a for a in stats.failed if not a.gave_up]
    assert sorted(
        (e.time, e.pid, e.args["op"], e.args["key"], e.args["attempt"], e.args["error"])
        for e in hub.tracer.instants if e.name == "transport.retry"
    ) == sorted((a.time, a.track, a.op, a.key, a.attempt, a.error) for a in retried)
    for op in {a.op for a in stats.failed}:
        for name, gave_up in (("retries", False), ("giveups", True)):
            n = sum(1 for a in stats.failed if a.op == op and a.gave_up == gave_up)
            counter = hub.metrics.get(f"resilience.{name}{{backend=redis,op={op}}}")
            assert (counter.value if counter is not None else 0) == n
    recovery = hub.metrics.get("resilience.recovery.seconds{backend=redis}")
    assert recovery.count == len(stats.recovery_latencies) == reported["recoveries"] > 0
    misses = hub.records["quorum_misses"]
    assert len(misses) == result.resilience.get("quorum_misses", 0)
    assert sorted(
        (e.time, e.pid, e.args["update"], e.args["arrived"], e.args["needed"])
        for e in hub.tracer.instants if e.name == "quorum.miss"
    ) == sorted(tuple(miss) for miss in misses)
    if pattern == 2:
        assert misses


def _diverging_run(monkeypatch):
    """A traced run that the lock-step divergence error ends part-way;
    returns its hub and its log."""
    logs = []

    def kept_log():
        logs.append(EventLog())
        return logs[-1]

    publish_column = patterns.SimStagingArea.publish_column

    def tampering(self, keys, nbytes):
        for key in keys:
            publish_column(self, (key,), nbytes + (key == "r1_snap0_a0"))

    monkeypatch.setattr(patterns, "EventLog", kept_log)
    monkeypatch.setattr(patterns.SimStagingArea, "publish_column", tampering)
    hub = Telemetry()
    with pytest.raises(ReproError, match="lock-step group diverged"):
        run_one_to_one(
            backend_models()["dragon"],
            OneToOneConfig(ranks_per_component=3, write_interval=10, train_iterations=60),
            telemetry=hub,
        )
    return hub, logs[0]


def test_a_run_that_raises_keeps_the_transport_it_finished(monkeypatch):
    """The ops logged before the error are still spans in the hub."""
    hub, log = _diverging_run(monkeypatch)
    rows = op_rows(log)
    assert {r.kind for r in rows} == {EventKind.WRITE, EventKind.POLL}
    assert [(s.pid, s.tid, s.start, s.args["key"]) for s in transport_spans(hub)] == [
        (r.component, r.rank, r.start, r.key) for r in rows
    ]
    assert hub.metrics.gauge("link.occupancy").value == 0.0


def test_a_run_that_raises_keeps_the_iterations_it_finished(monkeypatch):
    hub, log = _diverging_run(monkeypatch)
    assert_iterations_are_the_rows(hub, log)
    assert log.count(kind=EventKind.TRAIN) < 3 * 60  # it did end part-way


def test_a_real_run_derives_the_same_spans(tmp_path):
    from repro.transport import ServerManager
    from repro.workloads import RealOneToOneConfig, run_one_to_one_real

    hub = Telemetry()
    config = {"backend": "node-local", "n_shards": 1, "path": str(tmp_path)}
    with ServerManager("stage", config=config) as manager:
        result = run_one_to_one_real(
            manager.get_server_info(),
            RealOneToOneConfig(
                train_iterations=8, write_interval=4, read_interval=4,
                sim_iter_time=0.001, ai_iter_time=0.001,
            ),
            telemetry=hub,
        )
    rows = op_rows(result.log)
    assert rows
    assert [(s.name, s.pid, s.start, s.args["key"]) for s in transport_spans(hub)] == [
        (f"transport.{r.kind.value}", r.component, r.start, r.key) for r in rows
    ]
    writes = hub.metrics.get("transport.write.ops{backend=node-local}")
    assert writes.value == result.log.count(kind=EventKind.WRITE)
    assert_iterations_are_the_rows(hub, result.log)


def test_a_real_run_derives_only_its_retry_counters(tmp_path):
    """Real mode times its attempts on ``time.monotonic``, not the hub's
    clock: of its resilience records only ``resilience.retries`` is derived."""
    from repro.transport import ServerManager
    from repro.workloads import RealOneToOneConfig, run_one_to_one_real

    hub = Recording()
    config = {"backend": "node-local", "n_shards": 1, "path": str(tmp_path)}
    with ServerManager("stage", config=config) as manager:
        run_one_to_one_real(
            {
                **manager.get_server_info(),
                "chaos": {"unavailable": 0.5, "seed": 3},
                "resilience": {"seed": 3, "max_attempts": 8, "base_delay": 1e-4, "max_delay": 1e-3},
            },
            RealOneToOneConfig(
                train_iterations=8, write_interval=2, read_interval=2,
                sim_iter_time=0.001, ai_iter_time=0.001,
            ),
            telemetry=hub,
        )
    stats = hub.records["resilience"]
    assert len(stats) == 2  # the simulation's and the trainer's
    retried = Counter(a.op for s in stats for a in s.failed if not a.gave_up)
    assert retried
    assert {
        name: hub.metrics.get(name).value
        for name in hub.metrics.names() if name.startswith("resilience.")
    } == {f"resilience.retries{{backend=node-local,op={op}}}": n for op, n in retried.items()}
    assert not hub.tracer.instants
