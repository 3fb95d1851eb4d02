"""Invariants of the transport telemetry a hub derives from a run's log.

A transport op is recorded once, as a WRITE/READ/POLL row of the run's
:class:`~repro.telemetry.events.EventLog`; the hub's ``transport.*``
spans and metrics and its ``link.occupancy`` series are derived from
those rows when the run ends. These tests hold the derived series to
the rows, for both patterns on every backend.
"""

from bisect import bisect_right

import pytest

from repro.errors import ReproError
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
CASES = [(pattern, backend) for pattern in RUNS for backend in BACKENDS]


def traced(pattern, backend):
    hub = Telemetry()
    result = RUNS[pattern][0](backend, telemetry=hub)
    return hub, result.log


def op_rows(log, kinds=OPS):
    return [r for r in log if r.kind in kinds]


def transport_spans(hub):
    return hub.tracer.finished_spans(category="transport")


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
        name = f"transport.{kind.value}.{{}}{{{{backend={backend}}}}}"
        if not rows:
            # Pattern 2 cannot read from node-local storage on another node.
            assert (pattern, backend, kind) == ("many-to-one", "node-local", EventKind.READ)
            assert not any(name.format(what) in hub.metrics for what in ("ops", "seconds", "bytes"))
            continue
        ops, seconds = hub.metrics.get(name.format("ops")), hub.metrics.get(name.format("seconds"))
        assert ops.value == len(rows) == seconds.count
        assert seconds.sum == pytest.approx(sum(rows.durations()), rel=1e-12)
        if kind in WIRE:
            counted = hub.metrics.get(name.format("bytes"))
            assert counted.value == pytest.approx(rows.total_bytes(), rel=1e-12)
    # A poll moves no bytes, so it has no bytes counter at all.
    assert f"transport.poll.bytes{{backend={backend}}}" not in hub.metrics


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


@pytest.mark.parametrize("pattern, backend", CASES)
def test_a_traced_run_logs_what_an_untraced_run_logs(pattern, backend):
    untraced = RUNS[pattern][0](backend).log
    _, log = traced(pattern, backend)
    assert log.to_jsonl() == untraced.to_jsonl()


def test_a_run_that_raises_keeps_the_transport_it_finished(monkeypatch):
    """The lock-step divergence error ends the run part-way; the ops
    logged before it are still spans in the hub."""
    logs = []

    def kept_log():
        logs.append(EventLog())
        return logs[-1]

    publish = patterns.SimStagingArea.publish

    def tampering(self, key, nbytes):
        publish(self, key, nbytes + (key == "r1_snap0_a0"))

    monkeypatch.setattr(patterns, "EventLog", kept_log)
    monkeypatch.setattr(patterns.SimStagingArea, "publish", tampering)
    hub = Telemetry()
    with pytest.raises(ReproError, match="lock-step group diverged"):
        run_one_to_one(
            backend_models()["dragon"],
            OneToOneConfig(ranks_per_component=3, write_interval=10, train_iterations=60),
            telemetry=hub,
        )
    rows = op_rows(logs[0])
    assert {r.kind for r in rows} == {EventKind.WRITE, EventKind.POLL}
    assert [(s.pid, s.tid, s.start, s.args["key"]) for s in transport_spans(hub)] == [
        (r.component, r.rank, r.start, r.key) for r in rows
    ]
    assert hub.metrics.gauge("link.occupancy").value == 0.0


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
