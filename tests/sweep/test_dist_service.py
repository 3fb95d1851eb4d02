"""SweepService: multi-tenant lifecycle, fair-share, isolation, restart."""

import json
import logging
import sqlite3
import threading
import time

import pytest

from repro.errors import SweepError, SweepPoisonedError, TransportError
from repro.sweep.dist import WorkerAgent, WorkerOptions
from repro.sweep.dist.protocol import (
    CANCELLED,
    MULTI_GRID,
    TERMINAL,
    Assignment,
    dump_result,
    grid_signature,
)
from repro.sweep.dist.service import ServiceClient, SweepService
from repro.sweep.dist.store import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_POISONED,
    JOB_RUNNING,
    JOB_SUBMITTED,
)
from repro.sweep.engine import SweepEngine, SweepOptions
from repro.sweep.point import SweepPoint
from repro.transport.redis_backend import MiniRedisConnection


def square(x):
    return x * x


def boom(x):
    raise ValueError(f"toxic {x}")


def points_for(n, offset=0, func=square):
    return [
        (i, SweepPoint(func=func, kwargs={"x": i + offset}, label=f"p{i + offset}"))
        for i in range(n)
    ]


@pytest.fixture
def service(tmp_path):
    service = SweepService(
        tmp_path / "store.sqlite", host="127.0.0.1", port=0, lease_seconds=5.0
    )
    service.start()  # accept loop only; the reclaim tick needs serve_forever
    yield service
    service.request_stop()
    service.stop()


def claim(service, worker="w0"):
    """One CLAIM round-trip over a real socket; None when nothing offered."""
    conn = MiniRedisConnection(service.host, service.port, timeout=5.0)
    try:
        reply = conn.command("CLAIM", worker)
    finally:
        conn.close()
    if reply in (None, b"DRAINED") or str(reply) == "DRAINED":
        return None
    return Assignment.from_bytes(bytes(reply))


def claim_in_process(service, worker="w0"):
    """One CLAIM straight through the handler (no socket)."""
    return Assignment.from_bytes(bulk_payload(service._handle_claim(worker)))


def bulk_payload(reply):
    """Strip RESP bulk framing from a raw handler reply."""
    return bytes(reply).partition(b"\r\n")[2][:-2]


class FakeClock:
    def __init__(self, t=0.0):
        self.t = float(t)

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


def command(service, *parts):
    conn = MiniRedisConnection(service.host, service.port, timeout=5.0)
    try:
        return conn.command(*parts)
    finally:
        conn.close()


def finish(service, client, grid, assignment, worker="w0"):
    value = assignment.point.call()
    command(
        service, "DONE", worker, str(assignment.index), assignment.grid,
        dump_result(value, None),
    )


class TestSubmission:
    def test_submit_and_resubmit_idempotent(self, service):
        client = ServiceClient(f"{service.host}:{service.port}")
        first = client.submit("grid-a", points_for(3), tenant="alice")
        assert first["created"] and first["n_points"] == 3
        again = client.submit("grid-a", points_for(3), tenant="alice")
        assert not again["created"]
        assert again["grid"] == first["grid"]
        assert len(service.jobs) == 1

    def test_submit_matches_grid_signature(self, service):
        pts = points_for(2)
        reply = service.submit("g", pts)
        assert reply["grid"] == grid_signature(pts)

    def test_empty_submission_rejected(self, service):
        with pytest.raises(SweepError):
            service.submit("empty", [])

    def test_jobs_lists_all_tenants(self, service):
        client = ServiceClient(f"{service.host}:{service.port}")
        client.submit("grid-a", points_for(2), tenant="alice")
        client.submit("grid-b", points_for(2, offset=10), tenant="bob")
        rows = client.jobs()
        assert {(r["name"], r["tenant"]) for r in rows} == {
            ("grid-a", "alice"),
            ("grid-b", "bob"),
        }


class TestFairShare:
    def test_claims_rotate_across_tenants(self, service):
        a = service.submit("grid-a", points_for(4))["grid"]
        b = service.submit("grid-b", points_for(4, offset=10))["grid"]
        order = [claim(service).grid for _ in range(4)]
        # Round-robin: no tenant gets two claims before the other gets one.
        assert order in ([a, b, a, b], [b, a, b, a])

    def test_small_grid_not_starved_by_large(self, service):
        service.submit("big", points_for(50))
        small = service.submit("small", points_for(1, offset=100))["grid"]
        grids = [claim(service, f"w{i}").grid for i in range(4)]
        assert small in grids

    def test_drained_only_when_all_jobs_terminal(self, service):
        grid = service.submit("only", points_for(1))["grid"]
        assignment = claim(service)
        # Job still live (leased, not terminal): idle workers get a null
        # assignment and keep polling, not DRAINED.
        assert claim(service, "w1") is None
        assert not all(
            j.state in (JOB_DONE, JOB_POISONED, JOB_CANCELLED)
            for j in service.jobs.values()
        )
        command(
            service, "DONE", "w0", str(assignment.index), grid,
            dump_result(0, None),
        )
        reply = command(service, "CLAIM", "w1")
        assert str(reply) == "DRAINED"


class TestCancelIsolation:
    def test_cancel_never_revokes_other_tenants_leases(self, service):
        a = service.submit("grid-a", points_for(2), tenant="alice")["grid"]
        b = service.submit("grid-b", points_for(2, offset=10), tenant="bob")["grid"]
        # Bob holds a lease on his grid.
        bob_assignment = None
        while bob_assignment is None or bob_assignment.grid != b:
            bob_assignment = claim(service, "bob-w")
            if bob_assignment.grid == a:
                continue
        assert str(command(service, "CANCEL", a)) == CANCELLED
        # Alice's job is cancelled...
        assert service.status(a)["state"] == JOB_CANCELLED
        assert service.store.job(a)["state"] == JOB_CANCELLED
        # ...but Bob's lease still renews and his DONE still lands.
        renewed = command(service, "RENEW", "bob-w", str(bob_assignment.index), b)
        assert int(renewed) == 1
        reply = command(
            service, "DONE", "bob-w", str(bob_assignment.index), b,
            dump_result(42, None),
        )
        assert str(reply) == "OK"
        assert service.store.done_payloads(b)

    def test_done_for_cancelled_grid_is_stale(self, service):
        a = service.submit("grid-a", points_for(1))["grid"]
        assignment = claim(service)
        service.cancel(a)
        reply = command(
            service, "DONE", "w0", str(assignment.index), a, dump_result(0, None)
        )
        assert str(reply) == "STALE"
        assert service.store.done_payloads(a) == {}
        assert service.stale_grid == 1

    def test_cancel_idempotent_and_terminal_guard(self, service):
        a = service.submit("grid-a", points_for(1))["grid"]
        assert service.cancel(a) == CANCELLED
        assert service.cancel(a) == CANCELLED  # already cancelled: no-op
        done = service.submit("grid-b", points_for(1, offset=5))["grid"]
        assignment = claim(service)
        command(
            service, "DONE", "w0", str(assignment.index), done,
            dump_result(25, None),
        )
        assert service.cancel(done) == TERMINAL

    def test_cancel_unknown_grid_errors(self, service):
        with pytest.raises(TransportError):
            service.cancel("no-such-grid")


class TestRenewRouting:
    def test_renew_routes_by_grid(self, service):
        a = service.submit("grid-a", points_for(1))["grid"]
        service.submit("grid-b", points_for(1, offset=10))
        assignment = claim(service, "w0")
        ok = command(service, "RENEW", "w0", str(assignment.index), assignment.grid)
        assert int(ok) == 1
        other = a if assignment.grid != a else "unknown-grid"
        refused = command(service, "RENEW", "w0", str(assignment.index), other)
        assert int(refused) == 0

    def test_renew_without_grid_is_a_wrong_arity_error(self, service):
        service.submit("grid-a", points_for(1))
        assignment = claim(service, "w0")
        with pytest.raises(
            TransportError, match="wrong number of arguments for 'RENEW'"
        ):
            command(service, "RENEW", "w0", str(assignment.index))
        # The lease itself is untouched: the three-argument form renews it.
        assert int(command(service, "RENEW", "w0", str(assignment.index), assignment.grid)) == 1


class TestHello:
    def test_hello_advertises_multi_grid(self, service):
        import json

        service.submit("grid-a", points_for(3))
        service.submit("grid-b", points_for(2, offset=10))
        reply = command(service, "HELLO", "w0", json.dumps({}))
        info = json.loads(reply)
        assert info["grid"] == MULTI_GRID
        assert info["n_points"] == 5
        assert info["jobs"] == 2
        assert info["service"] is True


class TestWorkersDrainService:
    def run_workers(self, address, n=2, **kwargs):
        kwargs.setdefault("poll", 0.02)
        kwargs.setdefault("reconnect_budget", 10.0)
        agents = [
            WorkerAgent(address, WorkerOptions(seed=i, **kwargs)) for i in range(n)
        ]
        threads = [threading.Thread(target=a.run, daemon=True) for a in agents]
        for thread in threads:
            thread.start()
        return agents, threads

    def test_two_tenants_drain_concurrently(self, service):
        serve = threading.Thread(
            target=service.serve_forever, kwargs={"poll": 0.05}, daemon=True
        )
        serve.start()
        client = ServiceClient(f"{service.host}:{service.port}")
        a = client.submit("grid-a", points_for(4), tenant="alice", capture=False)
        b = client.submit(
            "grid-b", points_for(3, offset=10), tenant="bob", capture=False
        )
        agents, threads = self.run_workers(f"{service.host}:{service.port}")
        ra = client.wait(a["grid"], poll=0.05, timeout=30)
        rb = client.wait(b["grid"], poll=0.05, timeout=30)
        assert ra["state"] == JOB_DONE
        assert {i: v for i, (v, _) in ra["results"].items()} == {
            i: i * i for i in range(4)
        }
        assert {i: v for i, (v, _) in rb["results"].items()} == {
            i: (i + 10) * (i + 10) for i in range(3)
        }
        service.request_stop()
        for thread in threads:
            thread.join(timeout=10)
        serve.join(timeout=5)

    def test_poisoned_job_reaches_terminal_state(self, tmp_path):
        service = SweepService(
            tmp_path / "store.sqlite",
            host="127.0.0.1",
            port=0,
            lease_seconds=5.0,
            poison_workers=1,
            poison_failures=1,
        )
        serve = threading.Thread(
            target=service.serve_forever, kwargs={"poll": 0.05}, daemon=True
        )
        serve.start()
        try:
            client = ServiceClient(f"{service.host}:{service.port}")
            grid = client.submit("toxic", points_for(1, func=boom), capture=False)["grid"]
            agents, threads = self.run_workers(
                f"{service.host}:{service.port}", n=1
            )
            result = client.wait(grid, poll=0.05, timeout=30)
            assert result["state"] == JOB_POISONED
            assert 0 in result["poisoned"]
            assert "toxic" in result["poisoned"][0][-1]["error"]
            service.request_stop()
            for thread in threads:
                thread.join(timeout=10)
            serve.join(timeout=5)
        finally:
            service.request_stop()
            service.stop()


class TestRestart:
    def test_results_replayed_byte_identical_after_restart(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        service = SweepService(store_path, host="127.0.0.1", port=0)
        service.start()
        grid = service.submit("grid", points_for(3), capture=False)["grid"]
        payload = dump_result(0, None)
        assignment = claim(service)
        command(
            service, "DONE", "w0", str(assignment.index), grid, payload
        )
        before = service.store.done_payloads(grid)
        service.stop()  # no drain: simulates abrupt death after the ack

        revived = SweepService(store_path, host="127.0.0.1", port=0)
        revived.start()
        try:
            assert revived.status()["replayed"] == 1
            assert revived.jobs[grid].state == JOB_RUNNING
            # The acknowledged payload survived byte-for-byte.
            assert revived.store.done_payloads(grid) == before
            client = ServiceClient(f"{revived.host}:{revived.port}")
            results = client.results(grid, decode=False)
            assert results["results"][assignment.index] == payload
            # And the remaining points are claimable again.
            assert claim(revived, "w1") is not None
        finally:
            revived.stop()

    def test_terminal_jobs_stay_queryable_not_live(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        service = SweepService(store_path, host="127.0.0.1", port=0)
        service.start()
        grid = service.submit("grid", points_for(1), capture=False)["grid"]
        assignment = claim(service)
        command(
            service, "DONE", "w0", str(assignment.index), grid,
            dump_result(0, None),
        )
        assert service.status(grid)["state"] == JOB_DONE
        service.stop()

        revived = SweepService(store_path, host="127.0.0.1", port=0)
        revived.start()
        try:
            assert grid not in revived.jobs  # terminal: not re-activated
            client = ServiceClient(f"{revived.host}:{revived.port}")
            assert client.status(grid)["state"] == JOB_DONE
            assert client.results(grid)["state"] == JOB_DONE
            rows = client.jobs()
            assert [r["state"] for r in rows] == [JOB_DONE]
        finally:
            revived.stop()

    def test_null_spec_job_is_skipped_and_the_rest_resume(self, tmp_path, caplog):
        store_path = tmp_path / "store.sqlite"
        service = SweepService(store_path, host="127.0.0.1", port=0)
        broken = service.submit("broken", points_for(2), capture=False)["grid"]
        intact = service.submit("intact", points_for(2, offset=10), capture=False)["grid"]
        service.stop()
        conn = sqlite3.connect(store_path)
        conn.execute("UPDATE points SET spec = NULL WHERE grid = ? AND idx = 1", (broken,))
        conn.commit()
        conn.close()

        caplog.set_level(logging.ERROR, logger="repro")
        revived = SweepService(store_path, host="127.0.0.1", port=0)
        revived.start()
        try:
            assert list(revived.jobs) == [intact]
            assert [
                (r.getMessage(), r.fields["grid"]) for r in caplog.records
            ] == [("service.restore.unreadable", broken[:16])]
            assert claim(revived).grid == intact
        finally:
            revived.stop()

    def test_submit_after_restart_is_still_idempotent(self, tmp_path):
        store_path = tmp_path / "store.sqlite"
        service = SweepService(store_path, host="127.0.0.1", port=0)
        first = service.submit("grid", points_for(2), capture=False)
        service.stop()
        revived = SweepService(store_path, host="127.0.0.1", port=0)
        revived.start()
        try:
            again = revived.submit("grid", points_for(2), capture=False)
            assert not again["created"]
            assert again["grid"] == first["grid"]
        finally:
            revived.stop()


class TestStatus:
    def test_per_job_and_aggregate_documents(self, service):
        a = service.submit("grid-a", points_for(2), tenant="alice")["grid"]
        service.submit("grid-b", points_for(3, offset=10), tenant="bob")
        doc = service.status(a)
        assert doc["state"] == JOB_SUBMITTED
        assert doc["tenant"] == "alice"
        assert doc["n_points"] == 2
        aggregate = service.status()
        assert aggregate["grid"] == MULTI_GRID
        assert aggregate["n_points"] == 5
        assert set(aggregate["jobs"]) == set(service.jobs)
        # The aggregate document renders in the watch console unchanged.
        from repro.sweep.dist.watch import render_status

        assert "5" in render_status(aggregate)

    def test_status_unknown_grid_errors(self, service):
        with pytest.raises(TransportError):
            service.status("nope")


class TestRetiredJobs:
    """A job leaves memory when it becomes terminal; its store rows answer."""

    def test_finished_job_releases_specs_and_still_acks_late_done(self, service):
        grid = service.submit("grid-a", points_for(2), tenant="alice")["grid"]
        first = claim(service)
        # An unknown index is an error while the job is live.
        with pytest.raises(TransportError):
            command(service, "DONE", "w9", "7", grid, dump_result(0, None))
        second = claim(service)
        finish(service, None, grid, first)
        finish(service, None, grid, second)
        assert grid not in service.jobs  # every SweepPoint + kwargs released
        assert service.status(grid)["state"] == JOB_DONE
        late = ("DONE", "w9", "0", grid, dump_result(0, None))
        assert command(service, *late) == "DUPLICATE"
        doc = service.status(grid)
        assert doc["n_points"] == 2 and doc["remaining"] == 0
        assert doc["counts"] == {"queued": 0, "leased": 0, "done": 2, "poisoned": 0}
        assert service.status()["n_points"] == 2
        assert not service.submit("grid-a", points_for(2), tenant="alice")["created"]

    def test_cancelled_job_releases_specs(self, service):
        grid = service.submit("grid-a", points_for(3))["grid"]
        claim(service)
        assert service.cancel(grid) == CANCELLED
        assert grid not in service.jobs
        assert service.status(grid)["n_points"] == 3
        assert claim(service) is None  # nothing live: DRAINED


class TestFinishedJobInTheStore:
    """Every request about a finished job is answered from the store, the
    same way in the session that finished it and after a restart."""

    def finished_with_history(self, tmp_path):
        """A 3-point job finished on an injected clock after one reclaimed
        lease and one requeue; returns (service, grid)."""
        clock = FakeClock(0.0)
        service = SweepService(tmp_path / "store.sqlite", lease_seconds=5.0, clock=clock)
        grid = service.submit("history", points_for(3), tenant="alice")["grid"]
        lost = claim_in_process(service, "ghost")
        clock.advance(10.0)  # the ghost's lease expires: the next claim steals it
        assignments = [claim_in_process(service, "w1") for _ in range(3)]
        assert lost.index in [a.index for a in assignments]
        failed = assignments[0]
        assert service._handle_fail(
            "w1", failed.index, grid, '{"error": "transient"}'
        ) == b"+REQUEUED\r\n"
        assignments[0] = claim_in_process(service, "w2")
        for a in assignments:
            service._handle_done("w1", a.index, grid, dump_result(a.point.call(), None))
        return service, grid

    def test_status_is_one_document_before_and_after_restart(self, tmp_path):
        service, grid = self.finished_with_history(tmp_path)
        before = json.dumps(service.status(grid), sort_keys=True)
        service.stop()
        revived = SweepService(tmp_path / "store.sqlite")
        try:
            after = json.dumps(revived.status(grid), sort_keys=True)
        finally:
            revived.stop()
        assert after == before
        doc = json.loads(before)
        assert doc["state"] == JOB_DONE and doc["remaining"] == 0
        assert doc["counts"] == {"queued": 0, "leased": 0, "done": 3, "poisoned": 0}
        assert (doc["reclaims"], doc["requeues"]) == (1, 1)
        assert "executed" not in doc and "replayed" not in doc

    def test_aggregate_counts_retired_jobs(self, service):
        """N finished jobs and one live one: the aggregate reads what a
        walk over every job this session held would report."""
        grids = [service.submit(f"g{n}", points_for(2, offset=10 * n))["grid"]
                 for n in range(4)]
        for _ in range(8):
            a = claim(service)
            finish(service, None, a.grid, a)
        live = service.submit("live", points_for(3, offset=100))["grid"]
        claim(service)
        doc = service.status()
        assert doc["n_points"] == 11 and doc["remaining"] == 3
        assert doc["counts"] == {"queued": 2, "leased": 1, "done": 8, "poisoned": 0}
        assert (doc["executed"], doc["reclaims"], doc["replayed"]) == (8, 0, 0)
        assert live in doc["jobs"]
        assert all(service.status(g)["state"] == JOB_DONE for g in grids)

    def test_service_holds_live_jobs_only(self, service):
        done = service.submit("done", points_for(1))["grid"]
        cancelled = service.submit("cancelled", points_for(2, offset=10))["grid"]
        live = service.submit("live", points_for(2, offset=20))["grid"]
        a = claim(service)
        assert a.grid == done
        finish(service, None, done, a)
        service.cancel(cancelled)
        assert list(service.jobs) == [live]
        aggregate = service.status()
        assert set(aggregate["jobs"]) == {live}
        assert service.health()["jobs"] == {"live": 1}

    def test_late_done_and_fail_acks(self, tmp_path):
        store = tmp_path / "store.sqlite"
        service = SweepService(store)
        done = service.submit("done", points_for(1))["grid"]
        cancelled = service.submit("cancelled", points_for(1, offset=10))["grid"]
        a = claim_in_process(service, "w1")
        assert a.grid == done
        service._handle_done("w1", a.index, done, dump_result(0, None))
        service.cancel(cancelled)

        def late_acks(svc):
            blob = dump_result(0, None)
            return [
                svc._handle_done("w9", 0, done, blob),
                svc._handle_fail("w9", 0, done, "{}"),
                svc._handle_done("w9", 0, cancelled, blob),
                svc._handle_fail("w9", 0, cancelled, "{}"),
            ]

        expected = [b"+DUPLICATE\r\n"] * 2 + [b"+STALE\r\n"] * 2
        assert late_acks(service) == expected
        assert (service.duplicates, service.stale_grid) == (2, 2)
        service.stop()
        revived = SweepService(store)  # the same acks after a restart
        try:
            assert late_acks(revived) == expected
            assert (revived.duplicates, revived.stale_grid) == (2, 2)
            assert revived.store.done_payloads(cancelled) == {}
        finally:
            revived.stop()

    def test_metrics_counters_never_decrease_across_retirement(self, service):
        def totals():
            text = bulk_payload(service._dispatch("METRICS", [])).decode()
            return {
                sample: float(value)
                for sample, _, value in (line.rpartition(" ") for line in text.splitlines())
                if sample.startswith("repro_sweep_")
                and sample.partition("{")[0].endswith("_total")
            }

        grid = service.submit("g", points_for(2))["grid"]
        seen = [totals()]
        for _ in range(2):
            a = claim(service)
            finish(service, None, grid, a)
            seen.append(totals())
        report = json.loads(bulk_payload(service._handle_gc(
            {"max_age_seconds": 0.0, "lease_grace": 0.0, "dry_run": False}
        )))
        assert [e["grid"] for e in report["collected"]] == [grid]
        seen.append(totals())
        assert seen[-1]["repro_sweep_executed_total"] == 2
        for earlier, later in zip(seen, seen[1:]):
            for name, value in earlier.items():
                assert later[name] >= value, name

    def test_watch_can_drain_after_a_cancel(self, service):
        from repro.sweep.dist.watch import drained

        cancelled = service.submit("cancelled", points_for(3))["grid"]
        a = claim(service)
        finish(service, None, cancelled, a)
        other = service.submit("other", points_for(1, offset=10))["grid"]
        service.cancel(cancelled)
        a = claim(service)
        assert a.grid == other
        assert not drained(service.status())
        finish(service, None, other, a)
        doc = service.status()
        assert (doc["n_points"], doc["counts"]["done"]) == (2, 2)
        assert drained(doc)

    def test_submit_renders_each_point_once(self, service, monkeypatch):
        import repro.sweep.cache as cache

        real, depth, renders = cache.fingerprint, [0], []

        def counting(obj):
            if not depth[0]:
                renders.append(obj)
            depth[0] += 1
            try:
                return real(obj)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(cache, "fingerprint", counting)
        pts = points_for(40)
        reply = service.submit("forty", pts)
        assert len(renders) == 40
        monkeypatch.setattr(cache, "fingerprint", real)
        assert reply["grid"] == grid_signature(pts)


class TestEngineSubmitPath:
    def test_engine_submits_and_collects_in_point_order(self, tmp_path):
        service = SweepService(tmp_path / "store.sqlite", host="127.0.0.1", port=0)
        serve = threading.Thread(
            target=service.serve_forever, kwargs={"poll": 0.05}, daemon=True
        )
        serve.start()
        agent = WorkerAgent(
            f"{service.host}:{service.port}",
            WorkerOptions(poll=0.02, reconnect_budget=10.0),
        )
        worker = threading.Thread(target=agent.run, daemon=True)
        worker.start()
        try:
            points = [p for _, p in points_for(5)]
            options = SweepOptions(
                submit=f"{service.host}:{service.port}",
                tenant="engine",
                job_name="engine-grid",
            )
            report = SweepEngine(options).run(points)
            assert report.values == [i * i for i in range(5)]
            assert report.computed == 5
            assert service.store.jobs(name="engine-grid")
        finally:
            service.request_stop()
            worker.join(timeout=10)
            serve.join(timeout=5)
            service.stop()

    def test_resubmitting_a_finished_grid_replays_it(self, tmp_path):
        """SUBMIT of a grid the service already finished answers
        ``created: false``: the engine reports its points as replayed
        (progress source "journal"), not computed, with the same values."""
        service = SweepService(tmp_path / "store.sqlite", host="127.0.0.1", port=0)
        serve = threading.Thread(
            target=service.serve_forever, kwargs={"poll": 0.05}, daemon=True
        )
        serve.start()
        agent = WorkerAgent(
            f"{service.host}:{service.port}",
            WorkerOptions(poll=0.02, reconnect_budget=10.0),
        )
        worker = threading.Thread(target=agent.run, daemon=True)
        worker.start()
        try:
            points = [p for _, p in points_for(4)]
            reports, sources = [], []
            for _ in range(2):
                seen = []
                options = SweepOptions(
                    submit=f"{service.host}:{service.port}",
                    progress=lambda done, total, label, source: seen.append(source),
                )
                reports.append(SweepEngine(options).run(points))
                sources.append(seen)
            first, again = reports
            assert (first.computed, first.replayed) == (4, 0)
            assert (again.computed, again.replayed) == (0, 4)
            assert again.values == first.values == [i * i for i in range(4)]
            assert sources == [["run"] * 4, ["journal"] * 4]
            status = service.status(service.store.jobs()[0]["grid"])
            assert (first.reclaims, first.requeues) == (status["reclaims"], status["requeues"])
        finally:
            service.request_stop()
            worker.join(timeout=10)
            serve.join(timeout=5)
            service.stop()

    def test_resubmitting_a_running_grid_computes_the_rest(self, tmp_path):
        """SUBMIT of a grid the service still runs: the points done by the
        first STATUS are replayed ("journal"), the rest computed ("run")."""
        service = SweepService(tmp_path / "store.sqlite", host="127.0.0.1", port=0)
        pts = points_for(3)
        grid = service.submit("by-hand", pts)["grid"]
        assignment = Assignment.from_bytes(
            bytes(service._handle_claim("hand")).partition(b"\r\n")[2][:-2]
        )
        service._handle_done(
            "hand", assignment.index, grid,
            dump_result(assignment.point.call(), None),
        )
        serve = threading.Thread(
            target=service.serve_forever, kwargs={"poll": 0.05}, daemon=True
        )
        serve.start()
        agent = WorkerAgent(
            f"{service.host}:{service.port}",
            WorkerOptions(poll=0.02, reconnect_budget=10.0),
        )
        worker = threading.Thread(target=agent.run, daemon=True)
        sources = []

        def progress(done, total, label, source):
            # The agent starts only after the first STATUS was read, so
            # that STATUS sees exactly the point finished by hand.
            if not sources:
                worker.start()
            sources.append(source)

        try:
            options = SweepOptions(
                submit=f"{service.host}:{service.port}", progress=progress
            )
            report = SweepEngine(options).run([p for _, p in pts])
            serial = SweepEngine(SweepOptions()).run([p for _, p in pts])
            assert (report.computed, report.replayed) == (2, 1)
            assert report.values == serial.values == [0, 1, 4]
            assert sources == ["journal", "run", "run"]
        finally:
            service.request_stop()
            if worker.is_alive():
                worker.join(timeout=10)
            serve.join(timeout=5)
            service.stop()

    def test_submit_options_validation(self):
        with pytest.raises(SweepError):
            SweepOptions(submit="h:1", serve="h:2")
        with pytest.raises(SweepError):
            SweepOptions(submit="h:1", parallel=4)
        with pytest.raises(SweepError):
            SweepOptions(tenant="alice")
        with pytest.raises(SweepError):
            SweepOptions(job_name="x")
