"""Fleet observability: trace propagation, rates/METRICS, SPANS, watch.

Unit layers use injectable clocks (no sleeps, no sockets); the
integration layer runs real service+worker fleets over TCP and
asserts the merged artifacts — deterministic snapshot merges, the
fleet Chrome trace, and the Prometheus scrape.
"""

import json
import socket
import threading

import pytest

from repro.errors import BackendUnavailableError, SweepError
from repro.sweep import SweepEngine, SweepOptions, SweepPoint
from repro.sweep.dist import (
    EwmaRate,
    ServiceClient,
    SweepService,
    WorkerAgent,
    WorkerOptions,
    prometheus_exposition,
)
from repro.sweep.dist.protocol import Assignment, dump_result, dump_spans, load_spans
from repro.sweep.dist.query import fleet_tracer, lease_intervals
from repro.sweep.dist.watch import (
    drained,
    progress_bar,
    render_status,
    watch,
)
from repro.telemetry import Telemetry
from repro.telemetry.chrome_trace import load_trace, validate_trace_events
from repro.transport.redis_backend import MiniRedisConnection
from repro.version import __version__


def plain(x):
    return x * 2


def traced(x, telemetry=None):
    if telemetry is not None:
        with telemetry.span(f"compute x{x}", category="test"):
            pass
        telemetry.metrics.counter("computed").inc()
    return x * 2


def boom(x):
    raise ValueError(f"toxic {x}")


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def bulk_payload(reply: bytes) -> bytes:
    """Strip RESP bulk framing from a raw handler reply."""
    _, _, rest = bytes(reply).partition(b"\r\n")
    return rest[:-2]


# -- EwmaRate ---------------------------------------------------------------
class TestEwmaRate:
    def test_no_observations_reads_zero(self):
        assert EwmaRate().current(100.0) == 0.0

    def test_steady_completions_converge_on_true_rate(self):
        rate = EwmaRate()
        rate.mark_active(0.0)
        for t in range(1, 12):
            rate.observe(float(t))
        assert rate.current(11.0) == pytest.approx(1.0, rel=0.01)

    def test_silence_decays_the_estimate(self):
        rate = EwmaRate()
        rate.mark_active(0.0)
        for t in range(1, 6):
            rate.observe(float(t))
        assert rate.current(5.0) > 0.9
        assert rate.current(25.0) <= 1.0 / 20.0

    def test_observe_without_claim_anchors_silently(self):
        rate = EwmaRate()
        rate.observe(10.0)  # a steal's late DONE: no claim preceded it
        assert rate.current(10.0) == 0.0
        rate.observe(11.0)
        assert rate.current(11.0) == pytest.approx(1.0)

    def test_zero_interval_is_skipped(self):
        rate = EwmaRate()
        rate.mark_active(1.0)
        rate.observe(1.0)  # quantized clock: no time passed
        assert rate.current(1.0) == 0.0

    def test_alpha_validation(self):
        with pytest.raises(SweepError):
            EwmaRate(alpha=0.0)
        with pytest.raises(SweepError):
            EwmaRate(alpha=1.5)


# -- Prometheus exposition --------------------------------------------------
class TestPrometheusExposition:
    def status(self):
        return {
            "n_points": 4,
            "counts": {"queued": 1, "leased": 1, "done": 2, "poisoned": 0},
            "reclaims": 1,
            "requeues": 0,
            "executed": 2,
            "replayed": 0,
            "workers": {"h:1:0": {"claimed": 3, "completed": 2, "failed": 1}},
            "rates": {
                "h:1:0": {"points_per_second": 2.5, "lease_age_seconds": 0.75}
            },
        }

    def test_families_and_samples(self):
        text = prometheus_exposition(self.status())
        assert '# TYPE repro_sweep_points gauge' in text
        assert 'repro_sweep_points{state="done"} 2' in text
        assert "repro_sweep_points_total 4" in text
        assert "repro_sweep_reclaims_total 1" in text
        assert 'repro_sweep_worker_completed_total{worker="h:1:0"} 2' in text
        assert (
            'repro_sweep_worker_rate_points_per_second{worker="h:1:0"} 2.5' in text
        )
        assert 'repro_sweep_worker_lease_age_seconds{worker="h:1:0"} 0.75' in text

    def test_label_values_are_escaped(self):
        status = self.status()
        status["workers"] = {'evil"\\worker': {"claimed": 1}}
        status["rates"] = {}
        text = prometheus_exposition(status)
        assert 'worker="evil\\"\\\\worker"' in text

    def test_every_family_has_help_and_type(self):
        lines = prometheus_exposition(self.status()).splitlines()
        families = {
            l.split()[2] for l in lines if l.startswith("# TYPE")
        }
        helped = {l.split()[2] for l in lines if l.startswith("# HELP")}
        assert families == helped and len(families) >= 8


# -- SPANS wire format ------------------------------------------------------
class TestSpansPayload:
    def test_roundtrip(self):
        spans = [
            {
                "name": "p3",
                "category": "point",
                "start": 10.0,
                "end": 11.5,
                "tid": 0,
                "args": {"index": 3},
            }
        ]
        assert load_spans(dump_spans(spans)) == spans

    def test_non_list_payload_is_a_protocol_error(self):
        with pytest.raises(SweepError):
            load_spans('{"name": "x"}')
        with pytest.raises(SweepError):
            load_spans("not json")

    def test_malformed_entries_are_dropped_not_fatal(self):
        payload = dump_spans(
            [
                {"name": "ok", "start": 1.0, "end": 2.0},
                {"name": "backwards", "start": 2.0, "end": 1.0},
                {"start": 1.0, "end": 2.0},  # nameless
                "not a dict",
                {"name": "no-times"},
            ]
        )
        (span,) = load_spans(payload)
        assert span["name"] == "ok"
        assert span["category"] == "point" and span["args"] == {}


# -- Serving-side observability (no sockets, fake clocks) -------------------
@pytest.fixture
def make_coordinator(tmp_path):
    """The embedded ``--serve`` service: one grid (``.grid``), fleet trace on."""
    services = []

    def make(n=3, func=plain, **kwargs):
        points = [SweepPoint(func, {"x": i}) for i in range(n)]
        clock = FakeClock(0.0)
        wall = FakeClock(1000.0)
        kwargs.setdefault("lease_seconds", 5.0)
        kwargs.setdefault("fleet_path", tmp_path / "serve-fleet.json")
        service = SweepService(
            tmp_path / f"store-{len(services)}.sqlite",
            clock=clock,
            wall=wall,
            **kwargs,
        )
        service.grid = service.submit("grid", list(enumerate(points)))["grid"]
        services.append(service)
        return service, clock, wall

    yield make
    for service in services:
        service.stop()


def hello(coordinator, worker="w1", host="nodeA", pid=7):
    coordinator._handle_hello(
        worker, json.dumps({"version": __version__, "host": host, "pid": pid})
    )


def claim(coordinator, worker="w1") -> Assignment:
    reply = coordinator._handle_claim(worker)
    return Assignment.from_bytes(bulk_payload(reply))


def written_trace(coordinator, path=None):
    """Write the fleet trace; its non-metadata events, pid -> track name."""
    path = coordinator.fleet_path if path is None else path
    coordinator.write_fleet_trace(path)
    events = load_trace(path)
    names = {
        e["pid"]: e["args"]["name"] for e in events if e["name"] == "process_name"
    }
    return [{**e, "pid": names[e["pid"]]} for e in events if e["ph"] != "M"]


class TestCoordinatorTraceContext:
    def test_claim_is_stamped_with_trace_and_span_ids(self, make_coordinator):
        coordinator, _, _ = make_coordinator()
        hello(coordinator)
        assignment = claim(coordinator)
        assert assignment.trace_id == coordinator.grid[:16]
        assert assignment.span_id == f"{assignment.index}/1"

    def test_lease_lifetime_becomes_a_coordinator_span(self, make_coordinator):
        coordinator, clock, wall = make_coordinator()
        hello(coordinator)
        assignment = claim(coordinator)
        clock.advance(1.0)
        wall.advance(2.5)
        coordinator._handle_done(
            "w1", assignment.index, coordinator.grid, dump_result(0, None)
        )
        (span,) = [e for e in written_trace(coordinator) if e["cat"] == "lease"]
        assert span["pid"] == "coordinator"
        assert span["name"] == f"lease p{assignment.index}"
        assert span["dur"] == pytest.approx(2.5e6)
        assert span["args"]["outcome"] == "done"
        assert span["args"]["worker"] == "w1"
        assert span["args"]["span_id"] == assignment.span_id
        assert span["args"]["trace_id"] == assignment.trace_id

    def test_reclaim_emits_steal_instant_and_closes_the_span(self, make_coordinator):
        coordinator, clock, wall = make_coordinator()
        hello(coordinator)
        claim(coordinator)
        clock.advance(10.0)  # past the 5s lease
        wall.advance(10.0)
        coordinator.jobs[coordinator.grid].table.reclaim_expired()
        events = written_trace(coordinator)
        (steal,) = [e for e in events if e["name"] == "steal"]
        (span,) = [e for e in events if e["cat"] == "lease" and e["ph"] == "X"]
        assert span["args"]["outcome"] == "reclaim"
        assert span["dur"] == pytest.approx(10.0e6)
        # The steal sits on the lane of the worker it was taken from.
        assert (steal["pid"], steal["tid"]) == (span["pid"], span["tid"])
        assert steal["ts"] == span["ts"] + span["dur"]

    def test_worker_spans_file_under_hello_identity_track(self, make_coordinator):
        coordinator, _, _ = make_coordinator()
        hello(coordinator, worker="w1", host="nodeA", pid=7)
        reply = coordinator._handle_spans(
            "w1",
            dump_spans(
                [{"name": "p0", "start": 1000.0, "end": 1001.0, "args": {"k": 1}}]
            ),
        )
        assert reply == b":1\r\n"
        (span,) = [e for e in written_trace(coordinator) if e["name"] == "p0"]
        assert span["pid"] == "worker nodeA:7"
        assert span["args"]["k"] == 1

    def test_spans_from_unknown_worker_use_fallback_track(self, make_coordinator):
        coordinator, _, _ = make_coordinator()
        coordinator._handle_spans(
            "ghost", dump_spans([{"name": "p1", "start": 1.0, "end": 2.0}])
        )
        (span,) = written_trace(coordinator)
        assert span["pid"] == "worker ghost"


class TestCoordinatorRatesAndStatus:
    def test_status_gains_rates_remaining_and_poison_sections(self, make_coordinator):
        coordinator, clock, _ = make_coordinator()
        hello(coordinator)
        assignment = claim(coordinator)
        clock.advance(2.0)
        status = coordinator.status()
        assert status["remaining"] == 3
        assert status["poisoned_points"] == []
        entry = status["rates"]["w1"]
        assert entry["lease_age_seconds"] == pytest.approx(2.0)
        coordinator._handle_done(
            "w1", assignment.index, coordinator.grid, dump_result(0, None)
        )
        status = coordinator.status()
        assert status["rates"]["w1"]["points_per_second"] == pytest.approx(0.5)
        assert status["rates"]["w1"]["lease_age_seconds"] is None
        assert status["workers"]["w1"]["track"] == "worker nodeA:7"

    def test_metrics_command_returns_prometheus_text(self, make_coordinator):
        coordinator, clock, _ = make_coordinator()
        hello(coordinator)
        assignment = claim(coordinator)
        clock.advance(1.0)
        coordinator._handle_done(
            "w1", assignment.index, coordinator.grid, dump_result(0, None)
        )
        reply = coordinator._dispatch("METRICS", [])
        text = bulk_payload(reply).decode()
        assert "repro_sweep_executed_total 1" in text
        assert 'repro_sweep_worker_rate_points_per_second{worker="w1"} 1' in text

    def test_flight_ring_narrates_the_protocol(self, make_coordinator):
        coordinator, _, _ = make_coordinator()
        hello(coordinator)
        assignment = claim(coordinator)
        coordinator._handle_done(
            "w1", assignment.index, coordinator.grid, dump_result(0, None)
        )
        names = [e["event"] for e in coordinator.flight.events()]
        assert names == ["submit", "hello", "lease", "done"]

    def test_long_lived_service_holds_no_lease_spans(self, make_coordinator, tmp_path):
        # Without a fleet-trace destination a standalone service must not
        # grow with every point it serves: leases live only in the store,
        # and worker spans are acknowledged but not kept.
        service, _, _ = make_coordinator(n=200, fleet_path=None)
        hello(service)
        for _ in range(200):
            assignment = claim(service)
            reply = service._handle_done(
                "w1", assignment.index, service.grid, dump_result(0, None)
            )
            assert reply == b"+OK\r\n"
            reply = service._handle_spans(
                "w1",
                dump_spans(
                    [{"name": f"p{assignment.index}", "start": 1.0, "end": 2.0}]
                ),
            )
            assert reply == b":1\r\n"
        assert service.status(service.grid)["state"] == "done"
        assert service._worker_spans == []
        events = written_trace(service, tmp_path / "on-demand.json")
        assert sum(e["cat"] == "lease" for e in events) == 200
        assert not [e for e in events if e["cat"] == "point"]


class TestFleetTraceWriter:
    def test_open_leases_are_closed_at_write_time(self, make_coordinator, tmp_path):
        coordinator, _, wall = make_coordinator()
        hello(coordinator)
        claim(coordinator)
        wall.advance(3.0)
        path = tmp_path / "fleet.json"
        n = coordinator.write_fleet_trace(path)
        events = load_trace(path)
        assert validate_trace_events(events) == n
        (lease,) = [e for e in events if e.get("cat") == "lease"]
        assert lease["args"]["outcome"] == "open"
        assert lease["dur"] == pytest.approx(3.0 * 1e6)

    def test_trace_has_named_sorted_tracks(self, make_coordinator, tmp_path):
        coordinator, _, wall = make_coordinator()
        hello(coordinator, worker="w1", host="nodeA", pid=7)
        assignment = claim(coordinator)
        wall.advance(1.0)
        coordinator._handle_done(
            "w1", assignment.index, coordinator.grid, dump_result(0, None)
        )
        coordinator._handle_spans(
            "w1", dump_spans([{"name": "p0", "start": 1000.0, "end": 1001.0}])
        )
        path = tmp_path / "fleet.json"
        coordinator.write_fleet_trace(path)
        events = load_trace(path)
        names = {
            e["pid"]: e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        sort_index = {
            e["pid"]: e["args"]["sort_index"]
            for e in events
            if e.get("name") == "process_sort_index"
        }
        by_name = {names[pid]: sort_index[pid] for pid in names}
        assert set(by_name) == {"coordinator", "worker nodeA:7"}
        assert by_name["coordinator"] < by_name["worker nodeA:7"]

    def test_trace_is_the_same_when_written_twice(self, make_coordinator, tmp_path):
        coordinator, _, wall = make_coordinator()
        hello(coordinator)
        assignment = claim(coordinator)
        wall.advance(1.0)
        coordinator._handle_done(
            "w1", assignment.index, coordinator.grid, dump_result(0, None)
        )
        claim(coordinator)  # still open when written
        wall.advance(2.0)
        coordinator.write_fleet_trace(tmp_path / "a.json")
        coordinator.write_fleet_trace(tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_usage_bills_the_closed_lease_spans(self, make_coordinator):
        coordinator, clock, wall = make_coordinator()
        hello(coordinator)
        grid = coordinator.grid
        first = claim(coordinator)
        wall.advance(1.5)
        coordinator._handle_done("w1", first.index, grid, dump_result(0, None))
        claim(coordinator)
        clock.advance(10.0)
        wall.advance(2.0)
        coordinator.jobs[grid].table.reclaim_expired()
        for step in (0.75, 0.5):
            assignment = claim(coordinator)
            wall.advance(step)
            coordinator._handle_done(
                "w1", assignment.index, grid, dump_result(0, None)
            )
        assert coordinator.status(grid)["state"] == "done"
        report = json.loads(bulk_payload(coordinator._handle_usage({})))
        billed = sum(row["wall_seconds"] for row in report["tenants"])
        spans = [e for e in written_trace(coordinator) if e["ph"] == "X"]
        assert len(spans) == 4 and all(e["args"]["outcome"] != "open" for e in spans)
        assert billed == pytest.approx(sum(e["dur"] for e in spans) / 1e6)
        assert billed == pytest.approx(1.5 + 2.0 + 0.75 + 0.5)

    def test_poisoned_serve_dumps_the_flight_recorder(self, make_coordinator, tmp_path):
        dump_path = tmp_path / "postmortem.json"
        coordinator, _, _ = make_coordinator(
            n=1, poison_workers=1, poison_failures=1, flight_path=dump_path
        )
        hello(coordinator)
        assignment = claim(coordinator)
        coordinator._handle_fail(
            "w1",
            assignment.index,
            coordinator.grid,
            json.dumps({"error": "ValueError: toxic"}),
        )
        coordinator.serve_forever(poll=0.01, until=coordinator.grid)
        payload = json.loads(dump_path.read_text())
        assert payload["reason"] == "poison"
        assert [e["event"] for e in payload["events"]][:4] == [
            "submit", "hello", "lease", "poison",
        ]


# -- The trace from rows (no sockets, no SQLite) ----------------------------
GRID = "ab" * 32


def rows(*spec, grid=GRID, first_seq=1):
    """``events`` rows from ``(event, idx, worker, time)`` tuples."""
    return [
        {"seq": seq, "grid": grid, "idx": idx, "event": event,
         "worker": worker, "time": float(t)}
        for seq, (event, idx, worker, t) in enumerate(spec, start=first_seq)
    ]


#: One session: done, reclaim, requeue, poison, a stale DONE, an open lease.
SESSION = rows(
    ("submit", None, "", 9),
    ("lease", 0, "w1", 10),
    ("lease", 1, "w2", 11),
    ("done", 0, "w1", 12),
    ("reclaim", 1, None, 15),
    ("lease", 1, "w1", 16),
    ("requeue", 1, None, 17),
    ("lease", 1, "w2", 18),
    ("poisoned", 1, None, 19),
    ("lease", 2, "w1", 20),
    ("done", 3, "w9", 21),  # a stale worker's DONE: no lease open
)


class TestLeaseIntervals:
    def test_each_lease_pairs_with_the_row_that_settled_it(self):
        got = [
            (i.lease["idx"], i.lease["worker"], i.lease["time"],
             i.settle and i.settle["event"], i.settle and i.settle["time"],
             i.number)
            for i in lease_intervals(SESSION)
        ]
        assert got == [
            (0, "w1", 10.0, "done", 12.0, 1),
            (1, "w2", 11.0, "reclaim", 15.0, 1),
            (1, "w1", 16.0, "requeue", 17.0, 2),
            (1, "w2", 18.0, "poisoned", 19.0, 3),
            (2, "w1", 20.0, None, None, 1),  # still open: last
        ]

    def test_a_lease_issued_again_before_settling_replaces_the_first(self):
        (interval,) = lease_intervals(
            rows(("lease", 0, "w1", 1), ("lease", 0, "w2", 5), ("done", 0, "w2", 7))
        )
        assert (interval.lease["worker"], interval.settle["time"]) == ("w2", 7.0)
        assert interval.number == 2

    def test_points_of_different_grids_do_not_pair(self):
        mixed = rows(("lease", 0, "w1", 1)) + rows(
            ("done", 0, "w1", 2), grid="cd" * 32, first_seq=2
        )
        (interval,) = lease_intervals(mixed)
        assert interval.settle is None


class TestFleetTracerFromRows:
    def test_lease_spans_lanes_and_outcomes(self):
        tracer = fleet_tracer(SESSION, after_seq=0, now=30.0)
        got = [
            (s.name, s.pid, s.tid, s.start, s.duration, s.args["outcome"],
             s.args["worker"], s.args["span_id"], s.args["trace_id"])
            for s in tracer.spans
        ]
        assert got == [
            ("lease p0", "coordinator", 1, 10.0, 2.0, "done", "w1", "0/1", GRID[:16]),
            ("lease p1", "coordinator", 2, 11.0, 4.0, "reclaim", "w2", "1/1", GRID[:16]),
            ("lease p1", "coordinator", 1, 16.0, 1.0, "requeue", "w1", "1/2", GRID[:16]),
            ("lease p1", "coordinator", 2, 18.0, 1.0, "poison", "w2", "1/3", GRID[:16]),
            ("lease p2", "coordinator", 1, 20.0, 10.0, "open", "w1", "2/1", GRID[:16]),
        ]

    def test_steal_and_quarantine_instants(self):
        tracer = fleet_tracer(SESSION, after_seq=0, now=30.0)
        got = [(i.name, i.category, i.tid, i.time, i.args) for i in tracer.instants]
        assert got == [
            # On the lane of w2, the worker the lease was taken from.
            ("steal", "lease", 2, 15.0, {"index": 1, "worker": None}),
            # One requeue this session, then the poisoning failure.
            ("quarantine", "poison", 0, 19.0, {"index": 1, "failures": 2}),
        ]

    def test_restart_replays_the_done_rows_before_the_session(self):
        before = rows(
            ("done", 0, "w1", 1), ("done", 1, "w2", 2), ("lease", 2, "w1", 3)
        )
        after = rows(
            ("restore", None, None, 100),
            ("lease", 2, "w3", 101),
            ("done", 2, "w3", 102.5),
            first_seq=4,
        )
        tracer = fleet_tracer(before + after, after_seq=3, now=200.0)
        replays = [(i.name, i.category, i.time, i.args) for i in tracer.instants]
        assert replays == [
            ("replay", "journal", 100.0, {"index": 0}),
            ("replay", "journal", 100.0, {"index": 1}),
        ]
        # The lease the previous session left open is not this session's.
        (span,) = tracer.spans
        assert (span.args["worker"], span.args["span_id"], span.duration) == (
            "w3", "2/1", 1.5,
        )

    def test_worker_spans_join_on_their_own_tracks(self):
        shipped = {"name": "p0", "category": "point", "start": 10.5,
                   "end": 11.5, "tid": 0, "args": {"span_id": "0/1"}}
        tracer = fleet_tracer(SESSION, 0, 30.0, [("worker h:1", shipped)])
        span = tracer.spans[-1]
        assert (span.name, span.pid, span.category, span.duration) == (
            "p0", "worker h:1", "point", 1.0,
        )
        assert span.args == {"span_id": "0/1"}


# -- Watch console ----------------------------------------------------------
class TestWatchRendering:
    def status(self, done=2):
        return {
            "grid": "abcdef0123456789deadbeef",
            "n_points": 4,
            "counts": {"queued": 1, "leased": 4 - done - 1, "done": done,
                       "poisoned": 0},
            "executed": done,
            "replayed": 0,
            "reclaims": 1,
            "requeues": 0,
            "poisoned_points": [],
            "workers": {"h:1:0": {"claimed": 2, "completed": done, "failed": 0}},
            "rates": {"h:1:0": {"points_per_second": 2.0,
                                "lease_age_seconds": 0.5}},
        }

    def test_progress_bar_bounds(self):
        assert progress_bar(0, 0, width=10) == "[..........] 0/1"
        assert progress_bar(4, 4, width=10) == "[##########] 4/4"
        assert progress_bar(9, 4, width=10).startswith("[##########]")

    def test_render_includes_workers_and_rates(self):
        text = render_status(self.status())
        assert "abcdef0123456789" in text
        assert "2/4" in text
        assert "h:1:0" in text and "2.00/s" in text and "0.5s" in text

    def test_render_flags_quarantine_and_drain(self):
        status = self.status(done=3)
        status["counts"] = {"queued": 0, "leased": 0, "done": 3, "poisoned": 1}
        status["poisoned_points"] = [2]
        text = render_status(status)
        assert "quarantined points: 2" in text
        assert "grid drained." in text
        assert drained(status)

    def test_watch_loops_until_drained(self, tmp_path):
        import io

        statuses = [self.status(done=2), self.status(done=3)]
        statuses[1]["counts"] = {"queued": 0, "leased": 0, "done": 4,
                                 "poisoned": 0}
        statuses[1]["counts"]["done"] = 4
        feed = iter(statuses)
        stream = io.StringIO()
        slept = []
        code = watch(
            "127.0.0.1:1",
            interval=0.5,
            stream=stream,
            fetch=lambda addr: next(feed),
            sleep=slept.append,
        )
        assert code == 0
        assert slept == [0.5]
        assert "grid drained." in stream.getvalue()

    def test_watch_treats_gone_after_contact_as_run_end(self):
        # A serving sweep exits sub-seconds after its last DONE; a
        # watcher that polled mid-grid then lost it must not fail.
        import io

        from repro.errors import BackendUnavailableError

        replies = iter([self.status(done=2)])

        def fetch(addr):
            try:
                return next(replies)
            except StopIteration:
                raise BackendUnavailableError("coordinator exited")

        stream = io.StringIO()
        code = watch(
            "127.0.0.1:1", stream=stream, fetch=fetch, sleep=lambda s: None
        )
        assert code == 0
        assert "closed (2/4 done" in stream.getvalue()

    def test_watch_unreachable_coordinator_exits_nonzero(self):
        import io

        from repro.errors import BackendUnavailableError

        def fetch(addr):
            raise BackendUnavailableError("nobody home")

        stream = io.StringIO()
        assert watch("127.0.0.1:1", stream=stream, fetch=fetch) == 1
        assert "unreachable" in stream.getvalue()

    def _watch_with_health(self, probes):
        """Three refreshes of an undrained grid; HEALTH answers ``probes``."""
        import io

        calls = []

        def health_probe(addr):
            reply = probes[min(len(calls), len(probes) - 1)]
            calls.append(addr)
            if isinstance(reply, Exception):
                raise reply
            return reply

        stream = io.StringIO()
        watch(
            "127.0.0.1:1",
            stream=stream,
            max_refreshes=3,
            fetch=lambda addr: self.status(),
            health_probe=health_probe,
            sleep=lambda s: None,
        )
        return stream.getvalue(), len(calls)

    def test_watch_banner_survives_one_failed_health_probe(self):
        brownout = {"state": "brownout", "admission": {}, "queues": {}}
        text, calls = self._watch_with_health(
            [BackendUnavailableError("blip"), brownout]
        )
        assert calls == 3
        assert text.count("service BROWNOUT") == 2

    def test_watch_banner_is_off_for_a_peer_without_health(self):
        from repro.transport.resp import ServerReplyError

        for refusal in (ServerReplyError("ERR unknown command 'HEALTH'"), None):
            text, calls = self._watch_with_health([refusal])
            assert calls == 1  # never asked again this session
            assert "BROWNOUT" not in text and text.count("sweep abcdef") == 3

    def test_watch_validates_interval(self):
        with pytest.raises(SweepError):
            watch("127.0.0.1:1", interval=0.0)

    def test_watch_validates_reconnect_budget(self):
        with pytest.raises(SweepError):
            watch("127.0.0.1:1", reconnect_budget=-1.0)

    def _flaky_fetch(self, outages, final):
        """A fetch that succeeds once, fails ``outages`` times, then drains."""
        replies = iter(
            [self.status(done=2)]
            + [None] * outages
            + [final]
        )

        def fetch(addr):
            reply = next(replies)
            if reply is None:
                raise BackendUnavailableError("restarting")
            return reply

        return fetch

    def test_watch_rides_out_coordinator_restart(self):
        # The durable service SIGKILLed and restarted mid-watch: the
        # console banners RECONNECTING, re-attaches, and sees the drain.
        import io

        drained_status = self.status(done=4)
        drained_status["counts"] = {"queued": 0, "leased": 0, "done": 4,
                                    "poisoned": 0}
        stream = io.StringIO()
        slept = []
        code = watch(
            "127.0.0.1:1",
            interval=0.1,
            stream=stream,
            fetch=self._flaky_fetch(outages=3, final=drained_status),
            sleep=slept.append,
        )
        assert code == 0
        text = stream.getvalue()
        assert text.count("RECONNECTING to 127.0.0.1:1") == 3
        assert "reconnected to 127.0.0.1:1" in text
        assert "grid drained." in text

    def test_watch_reconnect_sleeps_never_exceed_budget(self):
        import io

        slept = []
        code = watch(
            "127.0.0.1:1",
            interval=1.0,
            stream=io.StringIO(),
            fetch=self._flaky_fetch(outages=50, final=self.status(done=4)),
            sleep=slept.append,
            reconnect_budget=2.0,
        )
        assert code == 0  # gone-after-contact is a normal run end
        assert sum(slept) <= 1.0 + 2.0  # one interval sleep + the budget

    def test_watch_reconnect_backoff_is_seeded(self):
        import io

        def run(seed):
            slept = []
            watch(
                "127.0.0.1:1",
                interval=0.5,
                stream=io.StringIO(),
                fetch=self._flaky_fetch(outages=4, final=self.status(done=4)),
                sleep=slept.append,
                reconnect_budget=5.0,
                seed=seed,
            )
            return slept

        assert run(7) == run(7)
        assert run(7) != run(8)


# -- Integration: real fleets over TCP --------------------------------------
def run_agents(address, n, **kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("reconnect_budget", 10.0)
    agents = [WorkerAgent(address, WorkerOptions(**kwargs)) for _ in range(n)]
    threads = [threading.Thread(target=a.run, daemon=True) for a in agents]
    for thread in threads:
        thread.start()
    return agents, threads


def drain_agents(agents, threads):
    for agent in agents:
        agent.request_drain()
    for thread in threads:
        thread.join(timeout=10)


class TestFleetIntegration:
    def _run_served(self, points, n_workers, hub=None, **option_kwargs):
        address = f"127.0.0.1:{free_port()}"
        options = SweepOptions(serve=address, **option_kwargs)
        engine = SweepEngine(options)
        agents, threads = run_agents(address, n_workers)
        try:
            report = engine.run(points, telemetry=hub)
        finally:
            drain_agents(agents, threads)
        return report, agents

    def test_three_worker_snapshot_merge_is_point_ordered(self):
        points = [
            SweepPoint(traced, {"x": x}, telemetry=True) for x in range(9)
        ]
        hubs = []
        for _ in range(2):
            hub = Telemetry()
            report, _ = self._run_served(points, n_workers=3, hub=hub)
            assert report.values == [x * 2 for x in range(9)]
            hubs.append(hub)
        orders = [
            [s.name for s in hub.tracer.spans if s.category == "test"]
            for hub in hubs
        ]
        # Whatever order 3 racing workers finished in, the merge is in
        # point order — twice over.
        assert orders[0] == [f"compute x{x}" for x in range(9)]
        assert orders[0] == orders[1]
        assert hubs[0].metrics.counter("computed").value == 9

    def test_replayed_cache_hits_carry_original_spans(self, tmp_path):
        points = [
            SweepPoint(traced, {"x": x}, telemetry=True) for x in range(4)
        ]
        cache_dir = tmp_path / "cache"
        report, _ = self._run_served(
            points, n_workers=2, hub=Telemetry(), cache_dir=cache_dir
        )
        assert report.computed == 4

        # Second run: pure cache hits, no workers, serial engine — the
        # original worker-side spans still arrive via the snapshots.
        hub = Telemetry()
        replay = SweepEngine(SweepOptions(cache_dir=cache_dir)).run(
            points, telemetry=hub
        )
        assert replay.computed == 0 and replay.cache.hits == 4
        names = [s.name for s in hub.tracer.spans if s.category == "test"]
        assert names == [f"compute x{x}" for x in range(4)]

    def test_metrics_scrape_and_fleet_trace_from_live_run(self, tmp_path):
        points = [SweepPoint(plain, {"x": x}) for x in range(6)]
        coordinator = SweepService(
            tmp_path / "store.sqlite",
            lease_seconds=5.0,
            fleet_path=tmp_path / "serve-fleet.json",
        )
        grid = coordinator.submit("grid", list(enumerate(points)))["grid"]
        agents, threads = run_agents(coordinator.address, n=2)
        try:
            coordinator.serve_forever(poll=0.02, until=grid)
            conn = MiniRedisConnection(coordinator.host, coordinator.port)
            metrics = conn.command("METRICS")
            status = ServiceClient(coordinator.address).status()
            conn.close()
        finally:
            drain_agents(agents, threads)
        text = (
            metrics.decode()
            if isinstance(metrics, (bytes, bytearray))
            else str(metrics)
        )
        assert coordinator.status(grid)["state"] == "done"
        assert "repro_sweep_executed_total 6" in text
        for agent in agents:
            assert f'worker="{agent.worker_id}"' in text
        assert drained(status)
        assert sum(e["completed"] for e in status["workers"].values()) == 6

        trace_path = tmp_path / "fleet.json"
        n = coordinator.write_fleet_trace(trace_path)
        coordinator.stop()
        events = load_trace(trace_path)
        assert validate_trace_events(events) == n
        tracks = {
            e["args"]["name"]
            for e in events
            if e.get("name") == "process_name"
        }
        assert "coordinator" in tracks
        assert any(t.startswith("worker ") for t in tracks)
        lease_spans = [
            e for e in events if e["ph"] == "X" and e.get("cat") == "lease"
        ]
        point_spans = [
            e for e in events if e["ph"] == "X" and e.get("cat") == "point"
        ]
        assert len(lease_spans) == 6
        # SPANS shipping is best-effort, but on a healthy loopback run
        # every executed point's span lands.
        assert len(point_spans) == 6
        total_shipped = sum(a.report.spans_shipped for a in agents)
        assert total_shipped == 6

    def test_dist_output_is_unchanged_by_observability(self, tmp_path):
        points = [SweepPoint(plain, {"x": x}) for x in range(5)]
        baseline = SweepEngine(SweepOptions()).run(points)
        report, _ = self._run_served(
            points,
            n_workers=2,
            fleet_trace=tmp_path / "fleet.json",
            flight_recorder=tmp_path / "flight.json",
        )
        assert report.values == baseline.values
        assert (tmp_path / "fleet.json").exists()
        assert (tmp_path / "flight.json").exists()
        assert json.loads((tmp_path / "flight.json").read_text())["reason"] == (
            "completed"
        )
