"""Embedded SweepService + WorkerAgent integration, in-process (threads, real TCP).

``coordinator_factory`` builds what ``SweepOptions(serve=...)`` embeds:
one :class:`SweepService` on a throwaway store with one submitted grid.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import (
    BackendUnavailableError,
    SweepError,
    SweepPoisonedError,
)
from repro.sweep import SweepEngine, SweepOptions, SweepPoint
from repro.sweep.dist import SweepService, WorkerAgent, WorkerOptions
from repro.sweep.dist.protocol import MULTI_GRID, load_result
from repro.sweep.dist.store import JOB_DONE, JOB_POISONED
from repro.transport.redis_backend import MiniRedisConnection
from repro.transport.resp import ServerReplyError


def add(x, y):
    return x + y


def traced_add(x, y, telemetry=None):
    if telemetry is not None:
        telemetry.metrics.counter("adds").inc()
    return x + y


_flaky_seen = set()


def flaky_once(x):
    """Raises a retryable error on the first attempt per point."""
    if x not in _flaky_seen:
        _flaky_seen.add(x)
        raise BackendUnavailableError(f"transient for {x}")
    return x


def always_boom(x):
    raise ValueError(f"toxic cell {x}")


def _refuse_to_load():
    raise ValueError("this result cannot be read back")


class Unloadable:
    """Pickles fine; unpickling it raises (the service reads results)."""

    def __reduce__(self):
        return (_refuse_to_load, ())


def unloadable(x):
    return Unloadable()


def make_points(n=6, func=add):
    return [SweepPoint(func, {"x": x, "y": 1}) for x in range(n)]


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def agent_options(**kwargs):
    kwargs.setdefault("poll", 0.02)
    kwargs.setdefault("reconnect_budget", 10.0)
    return WorkerOptions(**kwargs)


def run_agents(address, n=2, **kwargs):
    agents = [WorkerAgent(address, agent_options(**kwargs)) for _ in range(n)]
    threads = [threading.Thread(target=a.run, daemon=True) for a in agents]
    for t in threads:
        t.start()
    return agents, threads


def drain_agents(agents, threads):
    for agent in agents:
        agent.request_drain()
    for thread in threads:
        thread.join(timeout=10)


def serve_one_grid(store_path, points, port=0, capture=True, **kwargs):
    """A started service holding ``points`` as its one job (``.grid``)."""
    kwargs.setdefault("lease_seconds", 5.0)
    service = SweepService(store_path, port=port, **kwargs)
    service.grid = service.submit("grid", list(enumerate(points)), capture=capture)["grid"]
    service.start()
    return service


def values_of(service):
    """index -> value of every point the store has acknowledged."""
    _, payloads, _ = service.results(service.grid)
    return {index: load_result(blob)[0] for index, blob in payloads.items()}


@pytest.fixture
def coordinator_factory(tmp_path):
    services = []

    def make(points, **kwargs):
        store = tmp_path / f"serve-{len(services)}" / "store.sqlite"
        services.append(serve_one_grid(store, points, **kwargs))
        return services[-1]

    yield make
    for service in services:
        service.stop()


class TestHandshake:
    def test_ping_and_status(self, coordinator_factory):
        coordinator = coordinator_factory(make_points(2))
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        assert conn.command("PING") == "PONG"
        status = json.loads(conn.command("STATUS"))
        assert status["n_points"] == 2
        assert status["counts"]["queued"] == 2
        conn.close()

    def test_hello_returns_grid_info(self, coordinator_factory):
        points = make_points(3)
        coordinator = coordinator_factory(points)
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        info = json.loads(conn.command("HELLO", "w1", json.dumps({"pid": 1})))
        # Assignments, not HELLO, name the grid: a service may hold many.
        assert info["grid"] == MULTI_GRID and info["jobs"] == 1
        assert info["n_points"] == 3 and info["remaining"] == 3
        conn.close()

    def test_hello_rejects_version_mismatch(self, coordinator_factory):
        coordinator = coordinator_factory(make_points(1))
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        with pytest.raises(ServerReplyError, match="version mismatch"):
            conn.command("HELLO", "w1", json.dumps({"version": "0.0.0-other"}))
        conn.close()


class TestDistributedRun:
    def test_two_agents_drain_the_grid(self, coordinator_factory):
        points = make_points(8)
        coordinator = coordinator_factory(points)
        agents, threads = run_agents(coordinator.address, n=2)
        coordinator.serve_forever(poll=0.02, until=coordinator.grid)
        drain_agents(agents, threads)

        assert coordinator.status(coordinator.grid)["state"] == JOB_DONE
        assert values_of(coordinator) == {x: x + 1 for x in range(8)}
        assert sum(e["completed"] for e in coordinator.workers.values()) == 8

    def test_telemetry_snapshots_ship_back(self, coordinator_factory):
        points = [
            SweepPoint(traced_add, {"x": x, "y": 2}, telemetry=True) for x in range(3)
        ]
        coordinator = coordinator_factory(points, capture=True)
        agents, threads = run_agents(coordinator.address, n=1)
        coordinator.serve_forever(poll=0.02, until=coordinator.grid)
        drain_agents(agents, threads)
        _, payloads, _ = coordinator.results(coordinator.grid)
        for index in range(3):
            value, snapshot = load_result(payloads[index])
            assert value == points[index].kwargs["x"] + 2
            assert snapshot is not None

    def test_a_point_failing_once_finishes_through_one_requeue(self, coordinator_factory):
        _flaky_seen.clear()
        points = [SweepPoint(flaky_once, {"x": x}) for x in range(3)]
        coordinator = coordinator_factory(points)
        agents, threads = run_agents(coordinator.address, n=1)
        coordinator.serve_forever(poll=0.02, until=coordinator.grid)
        drain_agents(agents, threads)
        # The worker tries each point once and reports FAIL; the service
        # requeues it and the next claim finishes it.
        assert coordinator.status(coordinator.grid)["state"] == JOB_DONE
        assert values_of(coordinator) == {0: 0, 1: 1, 2: 2}
        assert coordinator.status(coordinator.grid)["requeues"] == 3
        requeues = [
            e["idx"] for e in coordinator.store.events(coordinator.grid)
            if e["event"] == "requeue"
        ]
        assert sorted(requeues) == [0, 1, 2]
        assert (agents[0].report.failed, agents[0].report.completed) == (3, 3)

    def test_poison_point_raises_with_tracebacks(self):
        points = [SweepPoint(add, {"x": 1, "y": 1}), SweepPoint(always_boom, {"x": 9})]
        # poison_failures is high so quarantine can only come from the
        # two-distinct-workers rule (deterministic worker set below).
        address = f"127.0.0.1:{free_port()}"
        engine = SweepEngine(
            SweepOptions(
                serve=address, poison_workers=2, poison_failures=50
            )
        )
        agents, threads = run_agents(address, n=2)
        try:
            with pytest.raises(SweepPoisonedError) as excinfo:
                engine.run(points)
        finally:
            drain_agents(agents, threads)

        (cell,) = excinfo.value.poisoned
        assert cell["index"] == 1 and cell["label"] == points[1].label
        assert "toxic cell 9" in cell["failures"][0]["error"]
        assert "always_boom" in cell["failures"][0]["traceback"]
        assert {f["worker"] for f in cell["failures"]} == {
            a.worker_id for a in agents
        }


class TestFaultPaths:
    def test_lease_steal_after_worker_goes_silent(self, coordinator_factory):
        points = make_points(2)
        coordinator = coordinator_factory(points, lease_seconds=0.3)
        # A "worker" that claims a point and then dies (never renews).
        ghost = MiniRedisConnection(coordinator.host, coordinator.port)
        ghost.command("HELLO", "ghost", "{}")
        assert ghost.command("CLAIM", "ghost") is not None
        ghost.close()

        agents, threads = run_agents(coordinator.address, n=1)
        coordinator.serve_forever(poll=0.02, until=coordinator.grid)
        drain_agents(agents, threads)
        assert sorted(values_of(coordinator)) == [0, 1]
        assert coordinator.status(coordinator.grid)["reclaims"] >= 1
        leases = [
            e["idx"] for e in coordinator.store.events(coordinator.grid)
            if e["event"] == "lease"
        ]
        assert leases.count(0) >= 2 or leases.count(1) >= 2

    def test_duplicate_done_is_acknowledged(self, coordinator_factory):
        from repro.sweep.dist.protocol import Assignment, dump_result

        coordinator = coordinator_factory(make_points(1))
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        conn.command("HELLO", "w1", "{}")
        assignment = Assignment.from_bytes(conn.command("CLAIM", "w1"))
        assert assignment.grid == coordinator.grid
        first = ("w1", str(assignment.index), assignment.grid, dump_result(123, None))
        late = ("w2", str(assignment.index), assignment.grid, dump_result(456, None))
        assert conn.command("DONE", *first) == "OK"
        assert conn.command("DONE", *late) == "DUPLICATE"
        assert coordinator.duplicates == 1
        assert values_of(coordinator) == {0: 123}  # first writer won
        conn.close()

    def test_unreadable_done_payload_is_rejected_before_commit(
        self, coordinator_factory
    ):
        from repro.sweep.dist.protocol import Assignment, dump_result

        coordinator = coordinator_factory(make_points(1))
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        assignment = Assignment.from_bytes(conn.command("CLAIM", "w1"))
        done = ("DONE", "w1", str(assignment.index), assignment.grid)
        with pytest.raises(ServerReplyError, match="unreadable result"):
            conn.command(*done, b"not a result payload")
        assert values_of(coordinator) == {}  # nothing reached the store
        assert conn.command(*done, dump_result(7, None)) == "OK"
        assert values_of(coordinator) == {0: 7}
        conn.close()

    def test_done_from_another_grid_is_discarded(self, coordinator_factory):
        """A stale worker's result must never land in a different grid."""
        from repro.sweep.dist.protocol import dump_result

        coordinator = coordinator_factory(make_points(2))
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        conn.command("HELLO", "w1", "{}")
        blob = dump_result(999, None)  # index 0 exists in *every* grid
        reply = conn.command("DONE", "w1", "0", "grid-from-a-previous-life", blob)
        assert reply == "STALE"
        assert values_of(coordinator) == {}
        assert coordinator.stale_grid == 1
        conn.close()

    def test_fail_from_another_grid_never_counts_toward_poison(
        self, coordinator_factory
    ):
        coordinator = coordinator_factory(
            make_points(1), poison_workers=1, poison_failures=1
        )
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        payload = json.dumps({"error": "boom", "traceback": "tb"})
        assert conn.command("FAIL", "w1", "0", "other-grid", payload) == "STALE"
        assert coordinator.jobs[coordinator.grid].table.records[0].failures == []
        assert coordinator.stale_grid == 1
        conn.close()

    def test_repeated_stale_fail_journals_poison_once(self, coordinator_factory):
        coordinator = coordinator_factory(
            make_points(1), poison_workers=2, poison_failures=2
        )
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        grid = coordinator.grid
        payload = json.dumps({"error": "boom", "traceback": "tb"})
        assert conn.command("FAIL", "w1", "0", grid, payload) == "REQUEUED"
        assert conn.command("FAIL", "w2", "0", grid, payload) == "POISONED"
        # A third, stale FAIL is acknowledged but not recorded again.
        assert conn.command("FAIL", "w3", "0", grid, payload) == "DUPLICATE"
        events = [e["event"] for e in coordinator.store.events(grid)]
        assert events.count("poisoned") == 1
        assert coordinator.status(grid)["state"] == JOB_POISONED
        conn.close()

    def test_done_after_journal_close_is_an_error_reply_not_a_disconnect(
        self, coordinator_factory
    ):
        """DONE after the store (the ``--journal`` directory's log) closed
        is an -ERR reply, not a dropped connection."""
        from repro.sweep.dist.protocol import Assignment, dump_result

        coordinator = coordinator_factory(make_points(2))
        conn = MiniRedisConnection(coordinator.host, coordinator.port)
        conn.command("HELLO", "w1", "{}")
        assignment = Assignment.from_bytes(conn.command("CLAIM", "w1"))
        coordinator.store.close()  # durability can no longer be promised
        blob = dump_result(1, None)
        with pytest.raises(ServerReplyError, match="is closed"):
            conn.command(
                "DONE", "w1", str(assignment.index), assignment.grid, blob
            )
        # The connection survived the rejection and is still usable.
        assert conn.command("PING") == "PONG"
        conn.close()

    def test_submit_discards_on_error_reply_instead_of_crashing(
        self, coordinator_factory
    ):
        # The service cannot read this point's result back, so it
        # answers the DONE -ERR: the agent must count that submission
        # rejected, not crash and not count it completed.
        coordinator = coordinator_factory(
            [SweepPoint(unloadable, {"x": 1})], lease_seconds=30.0
        )
        agents, threads = run_agents(coordinator.address, n=1)
        (agent,) = agents
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and agent.report.rejected == 0:
                time.sleep(0.02)
        finally:
            drain_agents(agents, threads)
        assert not threads[0].is_alive()
        assert agent.report.rejected == 1
        assert agent.report.completed == 0 and agent.report.drained
        assert values_of(coordinator) == {}

    def test_heartbeat_drops_broken_connection_and_renews_again(
        self, coordinator_factory
    ):
        from tests.sweep.dist_grid import slow_add

        coordinator = coordinator_factory(
            [SweepPoint(slow_add, {"x": 1, "y": 1, "delay": 2.0})],
            lease_seconds=0.6,
        )
        agents, threads = run_agents(coordinator.address, n=1)
        (agent,) = agents
        try:
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and agent.report.renews < 2:
                time.sleep(0.01)
            # Cut every connection the service holds, the heartbeat's too.
            for conn in list(coordinator._open_conns):
                conn.shutdown(socket.SHUT_RDWR)
            renews_at_cut = agent.report.renews
            while (
                time.monotonic() < deadline
                and agent.report.renews < renews_at_cut + 2
            ):
                time.sleep(0.01)
            coordinator.serve_forever(poll=0.02, until=coordinator.grid)
        finally:
            drain_agents(agents, threads)
        assert agent.report.renews >= renews_at_cut + 2  # renewals resumed
        assert coordinator.status(coordinator.grid)["reclaims"] == 0
        assert values_of(coordinator) == {0: 2}
        assert agent.report.completed == 1

    def test_grid_swap_on_same_address_discards_stale_result(self, tmp_path):
        """The reconnect budget rides out one serving session ending and
        the next starting on the same address; the old grid's in-flight
        result must not land in the new grid."""
        from tests.sweep.dist_grid import slow_add

        port = free_port()
        started = tmp_path / "started.log"
        grid_a = serve_one_grid(
            tmp_path / "a" / "store.sqlite",
            [
                SweepPoint(
                    slow_add,
                    {"x": 100, "y": 1, "delay": 1.0, "log": str(started)},
                )
            ],
            port=port,
        )
        agent = WorkerAgent(
            f"127.0.0.1:{port}", agent_options(reconnect_budget=20.0)
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        try:
            # Wait for the point to run, not for its lease: a CLAIM reply
            # cut by the stop below would never reach the worker.
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline and not started.exists():
                time.sleep(0.01)
            # Grid A's service vanishes while the point is in flight
            # and a *different* grid appears on the same address.
            grid_a.stop()
            grid_b = serve_one_grid(
                tmp_path / "b" / "store.sqlite",
                [SweepPoint(add, {"x": 0, "y": 5})],
                port=port,
            )
            try:
                grid_b.serve_forever(poll=0.02, until=grid_b.grid)
                # Grid A's late DONE must reach B before the verdict.
                deadline = time.monotonic() + 10
                while (
                    time.monotonic() < deadline
                    and agent.report.stale_grid + grid_b.stale_grid < 1
                ):
                    time.sleep(0.02)
                values = values_of(grid_b)
            finally:
                grid_b.stop()
        finally:
            agent.request_drain()
            thread.join(timeout=10)

        # Grid B got its own value, not grid A's 101 for the same index.
        assert values == {0: 5}
        assert agent.report.stale_grid + grid_b.stale_grid >= 1

    def test_worker_gives_up_when_coordinator_never_appears(self):
        agent = WorkerAgent(
            f"127.0.0.1:{free_port()}",
            WorkerOptions(poll=0.02, reconnect_budget=0.5),
        )
        report = agent.run()
        assert report.gave_up is True
        assert report.completed == 0

    def test_worker_drains_on_request(self, coordinator_factory):
        coordinator = coordinator_factory(make_points(2))
        agent = WorkerAgent(coordinator.address, agent_options(max_points=None))
        agent.request_drain()  # drain before starting: loop exits immediately
        report = agent.run()
        assert report.drained is True and report.completed == 0

    def test_drain_during_reconnect_is_not_giving_up(self):
        agent = WorkerAgent(
            f"127.0.0.1:{free_port()}",
            WorkerOptions(poll=0.02, reconnect_budget=30.0),
        )
        thread = threading.Thread(target=agent.run, daemon=True)
        thread.start()
        time.sleep(0.3)  # let the agent enter its reconnect loop
        agent.request_drain()
        thread.join(timeout=10)
        assert agent.report.drained is True
        assert agent.report.gave_up is False

    def test_worker_process_exits_nonzero_after_giving_up(self):
        import signal as signal_module

        from repro.sweep.dist import run_worker_process

        previous = signal_module.getsignal(signal_module.SIGTERM)
        try:
            code = run_worker_process(
                f"127.0.0.1:{free_port()}",
                reconnect_budget=0.4,
                poll=0.02,
                quiet=True,
            )
        finally:
            signal_module.signal(signal_module.SIGTERM, previous)
        assert code == 1

    def test_worker_process_gives_sigterm_back_when_it_ends(self):
        import signal

        from repro.sweep.dist import run_worker_process

        def before(signum, frame):
            pass

        original = signal.signal(signal.SIGTERM, before)
        try:
            code = run_worker_process(
                f"127.0.0.1:{free_port()}", reconnect_budget=0.1, quiet=True
            )
            assert signal.getsignal(signal.SIGTERM) is before
        finally:
            signal.signal(signal.SIGTERM, original)
        assert code == 1


class TestEngineServe:
    def test_engine_serve_matches_serial(self):
        points = make_points(6)
        serial = SweepEngine(SweepOptions()).run(points)

        port = free_port()
        address = f"127.0.0.1:{port}"
        events = []
        options = SweepOptions(
            serve=address,
            lease_seconds=5.0,
            progress=lambda done, total, label, source: events.append(source),
        )
        engine = SweepEngine(options)
        agents, threads = run_agents(address, n=2)
        try:
            report = engine.run(points)
        finally:
            drain_agents(agents, threads)

        assert report.values == serial.values
        assert report.computed == 6 and report.replayed == 0
        assert events.count("run") == 6

    def test_engine_serve_resumes_from_journal(self, tmp_path):
        points = make_points(4)
        port = free_port()
        address = f"127.0.0.1:{port}"
        journal = tmp_path / "journal"

        # Session 1: one agent computes only 2 points, then the "run"
        # stops (request_stop simulates a killed serving process).
        options = SweepOptions(serve=address, journal_dir=journal)
        engine = SweepEngine(options)
        agent = WorkerAgent(address, agent_options(max_points=2))
        thread = threading.Thread(target=agent.run, daemon=True)

        def stop_after_agent():
            thread.join(timeout=10)
            while engine._service is None:
                time.sleep(0.01)
            engine._service.request_stop()

        stopper = threading.Thread(target=stop_after_agent, daemon=True)
        thread.start()
        stopper.start()
        with pytest.raises(SweepError, match="unfinished"):
            engine.run(points)
        stopper.join(timeout=10)

        # Session 2: same store -> the 2 done points replay, 2 execute.
        engine2 = SweepEngine(SweepOptions(serve=address, journal_dir=journal))
        agents, threads = run_agents(address, n=1)
        try:
            report = engine2.run(points)
        finally:
            drain_agents(agents, threads)
        assert report.replayed == 2 and report.computed == 2
        assert report.values == [x + 1 for x in range(4)]

    def _serve(self, points, address, **options):
        """One ``serve`` session drained by two in-process agents."""
        agents, threads = run_agents(address, n=2)
        try:
            return SweepEngine(SweepOptions(serve=address, **options)).run(points)
        finally:
            drain_agents(agents, threads)

    def test_serial_serve_and_submit_agree_then_a_finished_journal_replays(
        self, tmp_path
    ):
        import dataclasses

        from repro.sweep import ResultCache

        points = [
            SweepPoint(traced_add, {"x": x, "y": 2}, telemetry=True) for x in range(5)
        ]

        def stored(cache_dir):
            """Canonical bytes of every (value, snapshot) the run cached."""
            cache = ResultCache(cache_dir)
            entries = [cache.lookup(cache.key_for(point)) for point in points]
            return json.dumps(
                [[e["value"], dataclasses.asdict(e["snapshot"])] for e in entries],
                sort_keys=True,
            )

        serial = SweepEngine(SweepOptions(cache_dir=tmp_path / "c-serial")).run(points)

        address = f"127.0.0.1:{free_port()}"
        journal = tmp_path / "journal"
        served = self._serve(
            points, address, journal_dir=journal, cache_dir=tmp_path / "c-serve"
        )

        service = SweepService(tmp_path / "standalone.sqlite")
        loop = threading.Thread(
            target=service.serve_forever, kwargs={"poll": 0.02}, daemon=True
        )
        loop.start()
        agents, threads = run_agents(service.address, n=1)
        try:
            submitted = SweepEngine(
                SweepOptions(submit=service.address, cache_dir=tmp_path / "c-submit")
            ).run(points)
        finally:
            drain_agents(agents, threads)
            service.request_stop()
            loop.join(timeout=10)
            service.stop()

        assert serial.values == served.values == submitted.values
        assert (
            stored(tmp_path / "c-serial")
            == stored(tmp_path / "c-serve")
            == stored(tmp_path / "c-submit")
        )
        assert served.computed == 5 and served.replayed == 0

        # Same journal, no workers at all: everything replays at once.
        replay = []
        session = threading.Thread(
            target=lambda: replay.append(
                SweepEngine(SweepOptions(serve=address, journal_dir=journal)).run(
                    points
                )
            ),
            daemon=True,
        )
        session.start()
        session.join(timeout=10)
        assert not session.is_alive(), "replay session waited for workers"
        (report,) = replay
        assert report.values == serial.values
        assert report.computed == 0 and report.replayed == 5

    def test_sigterm_handler_installed_from_c_is_restored_as_default(
        self, tmp_path, monkeypatch
    ):
        import signal

        points = make_points(2)
        address = f"127.0.0.1:{free_port()}"
        self._serve(points, address, journal_dir=tmp_path / "journal")

        original = signal.getsignal(signal.SIGTERM)
        real = signal.signal
        handlers = []

        def signal_with_c_handler(signum, handler):
            handlers.append(handler)
            previous = real(signum, handler)
            # What signal.signal reports for a handler Python did not install.
            return None if len(handlers) == 1 else previous

        monkeypatch.setattr(signal, "signal", signal_with_c_handler)
        try:
            SweepEngine(
                SweepOptions(serve=address, journal_dir=tmp_path / "journal")
            ).run(points)
        finally:
            real(signal.SIGTERM, original)
        assert handlers[-1] is signal.SIG_DFL

    def test_serve_and_parallel_are_exclusive(self):
        with pytest.raises(SweepError, match="mutually exclusive"):
            SweepOptions(serve="127.0.0.1:1", parallel=4)

    def test_journal_requires_serve(self):
        with pytest.raises(SweepError, match="journal"):
            SweepOptions(journal_dir="/tmp/x")
