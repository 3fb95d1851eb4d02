"""SweepStore: durability, idempotency, crash recovery."""

import hashlib
import json
import os
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import SweepStoreError
from repro.sweep.cache import ResultCache, point_key
from repro.sweep.dist import store as store_module
from repro.sweep.dist.loadgen import loadgen_point
from repro.sweep.dist.protocol import dump_result
from repro.sweep.dist.query import ReaderPool
from repro.sweep.dist.service import SweepService
from repro.sweep.dist.store import (
    JOB_DONE,
    JOB_SUBMITTED,
    SCHEMA_VERSION,
    STORE_FILENAME,
    SweepStore,
)

from repro.sweep.point import SweepPoint
from repro.transport import resp

from .store_crash import GRID as CRASH_GRID
from .store_crash import N_POINTS as CRASH_POINTS


@pytest.fixture
def store(tmp_path):
    store = SweepStore(tmp_path / "store.sqlite")
    yield store
    store.close()


class TestJobs:
    def test_submit_creates_job_and_points(self, store):
        created = store.submit_job(
            "g1", name="grid", points=[(0, b"a"), (1, b"b")], tenant="alice"
        )
        assert created
        job = store.job("g1")
        assert job["state"] == JOB_SUBMITTED
        assert job["name"] == "grid"
        assert job["tenant"] == "alice"
        assert job["n_points"] == 2
        assert store.load_specs("g1") == [(0, b"a"), (1, b"b")]

    def test_submit_is_idempotent_by_grid(self, store):
        assert store.submit_job("g1", name="grid", points=[(0, b"a")])
        store.record_done("g1", 0, b"result", worker="w")
        # A retried SUBMIT (same signature) must not fork the job or
        # clobber recorded results.
        assert not store.submit_job("g1", name="grid", points=[(0, b"a")])
        assert store.done_payloads("g1") == {0: b"result"}

    def test_jobs_listing_and_filter(self, store):
        store.submit_job("g1", name="alpha", points=[(0, None)])
        store.submit_job("g2", name="beta", points=[(0, None)])
        assert {j["grid"] for j in store.jobs()} == {"g1", "g2"}
        assert [j["grid"] for j in store.jobs(name="beta")] == ["g2"]

    def test_resumable_is_every_non_terminal_job(self, store):
        store.submit_job("with", name="w", points=[(0, b"s")])
        store.submit_job("without", name="n", points=[(0, None)])
        store.submit_job("terminal", name="t", points=[(0, b"s")])
        store.set_job_state("terminal", JOB_DONE)
        # Specs are the restoring service's concern, not the store's.
        assert [j["grid"] for j in store.resumable_jobs()] == ["with", "without"]

    def test_specless_point_done_is_still_resumable(self, store):
        # The store never inspects specs, finished or pending.
        store.submit_job("g", name="g", points=[(0, None), (1, b"s")])
        store.record_done("g", 0, b"r", worker="w")
        assert [j["grid"] for j in store.resumable_jobs()] == ["g"]


class TestPoints:
    def test_record_done_first_writer_wins(self, store):
        store.submit_job("g", name="g", points=[(0, b"s")])
        assert store.record_done("g", 0, b"first", worker="w1")
        assert not store.record_done("g", 0, b"second", worker="w2")
        assert store.done_payloads("g") == {0: b"first"}

    def test_poison_never_overwrites_done(self, store):
        store.submit_job("g", name="g", points=[(0, b"s"), (1, b"s")])
        store.record_done("g", 0, b"r", worker="w")
        store.record_poisoned("g", 0, [{"error": "late"}])
        store.record_poisoned("g", 1, [{"error": "toxic"}])
        assert store.done_payloads("g") == {0: b"r"}
        assert store.job_results("g") == (
            "submitted", {0: b"r"}, {1: [{"error": "toxic"}]}
        )
        assert store.job_status("g")["counts"] == {
            "queued": 0, "leased": 0, "done": 1, "poisoned": 1,
        }

    def test_events_audit_trail(self, store):
        store.submit_job("g", name="g", points=[(0, b"s")])
        store.record_event("g", 0, "lease", worker="w0")
        store.record_done("g", 0, b"r", worker="w0")
        events = [e["event"] for e in store.events("g")]
        assert events == ["submit", "lease", "done"]


def _lease_rows_on_disk(pool):
    """What a second connection sees — i.e. what is committed."""
    with pool.connection() as conn:
        return conn.execute(
            "SELECT COUNT(*) FROM events WHERE event = 'lease'"
        ).fetchone()[0]


class TestAuditRidesNextCommit:
    """record_event does not wait or commit; the next waited mutation,
    flush(), close() or the idle deadline makes its rows durable."""

    @pytest.fixture
    def no_idle_flush(self, monkeypatch):
        monkeypatch.setattr(store_module, "AUDIT_FLUSH_SECONDS", 3600.0)

    @pytest.fixture
    def pool(self, store):
        store.submit_job("g", name="g", points=[(0, b"s"), (1, b"s")])
        with ReaderPool(store.path) as pool:
            yield pool

    def test_rides_the_next_waited_mutation(self, store, pool, no_idle_flush):
        store.record_event("g", 0, "lease", worker="w0")
        assert _lease_rows_on_disk(pool) == 0
        # Reads through the store see the row at once, in call order.
        assert [e["event"] for e in store.events("g")] == ["submit", "lease"]
        store.record_done("g", 0, b"r", worker="w0")
        assert _lease_rows_on_disk(pool) == 1

    def test_flush_is_a_barrier(self, store, pool, no_idle_flush):
        store.record_event("g", 0, "lease", worker="w0")
        store.record_event("g", 1, "lease", worker="w0")
        assert _lease_rows_on_disk(pool) == 0
        store.flush()
        assert _lease_rows_on_disk(pool) == 2

    def test_idle_deadline_commits_without_any_caller(self, store, pool):
        store.record_event("g", 0, "lease", worker="w0")
        deadline = time.monotonic() + 20 * store_module.AUDIT_FLUSH_SECONDS
        while _lease_rows_on_disk(pool) == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _lease_rows_on_disk(pool) == 1

    def test_close_commits_pending_rows(self, tmp_path, no_idle_flush):
        path = tmp_path / "closing.sqlite"
        with SweepStore(path) as store:
            store.submit_job("g", name="g", points=[(0, b"s")])
            store.record_event("g", 0, "lease", worker="w0")
        with SweepStore(path) as store:
            assert [e["event"] for e in store.events("g")] == ["submit", "lease"]

    def test_failed_mutation_keeps_pending_rows(self, store, pool, no_idle_flush):
        store.record_event("g", 0, "lease", worker="w0")
        with pytest.raises(SweepStoreError):  # duplicate idx: the INSERT fails
            store.submit_job("dup", name="dup", points=[(0, b"s"), (0, b"s")])
        store.flush()
        assert store.job("dup") is None  # the failed submit undid itself only
        assert _lease_rows_on_disk(pool) == 1

    def test_closed_store_raises(self, tmp_path):
        store = SweepStore(tmp_path / "closed.sqlite")
        store.close()
        with pytest.raises(SweepStoreError):
            store.record_event("g", 0, "lease", worker="w0")
        with pytest.raises(SweepStoreError):
            store.flush()

    def test_claim_commits_nothing_until_done(self, tmp_path, no_idle_flush):
        service = SweepService(tmp_path / "service.sqlite", lease_seconds=60.0)
        probe = sqlite3.connect(service.store.path)
        try:
            spec = [
                (i, SweepPoint(func=loadgen_point, kwargs={"x": float(i)}))
                for i in range(3)
            ]
            grid = service.submit("g", spec)["grid"]
            # The job's first CLAIM also commits its SUBMITTED -> RUNNING flip.
            assert service._dispatch("CLAIM", [b"w0"]) != resp.encode_bulk(None)

            def version():
                return probe.execute("PRAGMA data_version").fetchone()[0]

            before = version()
            assert service._dispatch("CLAIM", [b"w0"]) != resp.encode_bulk(None)
            assert version() == before  # lease row pending, nothing committed
            leases = [e for e in service.store.events(grid) if e["event"] == "lease"]
            assert [e["idx"] for e in leases] == [0, 1]
            ack = service._dispatch("DONE", [b"w0", b"1", grid.encode(), dump_result(1, None)])
            assert ack == resp.encode_simple("OK")
            assert version() != before  # one commit: the lease rows + the done row
            on_disk = probe.execute(
                "SELECT event, idx FROM events WHERE grid = ? AND idx IS NOT NULL"
                " ORDER BY seq", (grid,),
            ).fetchall()
            assert on_disk == [("lease", 0), ("lease", 1), ("done", 1)]
        finally:
            probe.close()
            service.stop()


class TestThreads:
    """Every call runs on its caller's thread under the store lock; the
    one thread a store starts is the idle-deadline ticker."""

    def test_concurrent_callers_keep_acks_and_call_order(self, store):
        n_threads, per_thread = 8, 25
        store.submit_job(
            "g", name="g", points=[(i, b"s") for i in range(n_threads * per_thread)]
        )
        start = threading.Barrier(n_threads)
        acked: dict[int, bytes] = {}
        errors: list[BaseException] = []

        def caller(t: int) -> None:
            worker = f"w{t}"
            try:
                start.wait()
                for k in range(per_thread):
                    idx = t * per_thread + k
                    store.record_event("g", idx, "lease", worker=worker)
                    assert store.job("g")["n_points"] == n_threads * per_thread
                    payload = b"r-%d" % idx
                    if store.record_done("g", idx, payload, worker=worker):
                        acked[idx] = payload
                    assert store.job_status("g")["counts"]["done"] >= 1
                    if k == per_thread // 2:
                        store.flush()
                    # A failing mutation undoes itself only, not the rows
                    # other threads left pending or are committing.
                    with pytest.raises(SweepStoreError):
                        store.submit_job(f"d{t}", name="d", points=[(0, b"s")] * 2)
            except BaseException as exc:  # surfaced below, per thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=caller, args=(t,)) for t in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(acked) == n_threads * per_thread
        with ReaderPool(store.path) as pool, pool.connection() as conn:
            on_disk = {idx: payload for idx, payload in conn.execute(
                "SELECT idx, payload FROM points WHERE grid = 'g' AND state = 'done'"
            )}
            assert on_disk == acked
            for t in range(n_threads):
                rows = [tuple(row) for row in conn.execute(
                    "SELECT event, idx FROM events WHERE worker = ? ORDER BY seq",
                    (f"w{t}",),
                )]
                own = range(t * per_thread, (t + 1) * per_thread)
                assert rows == [(e, idx) for idx in own for e in ("lease", "done")]

    def test_one_ticker_gone_within_a_second_of_close(self, tmp_path):
        before = set(threading.enumerate())
        store = SweepStore(tmp_path / "ticking.sqlite")
        started = set(threading.enumerate()) - before
        tickers = [t for t in started if t.name.startswith("sweep-store-")]
        assert len(tickers) <= 1
        store.record_event("g", None, "restore")
        assert store.is_open
        store.close()
        assert not store.is_open
        deadline = time.monotonic() + 1.0
        while any(t.is_alive() for t in tickers) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert not any(t.is_alive() for t in tickers)

    def test_health_reports_a_closed_store_unwritable(self, tmp_path):
        service = SweepService(tmp_path / "health.sqlite")
        try:
            assert service.health()["store"]["writable"] is True
            service.store.close()
            assert service.health()["store"]["writable"] is False
        finally:
            service.stop()


class TestHistory:
    def test_store_in_a_cache_dir_is_not_a_history_sink(self, tmp_path):
        with SweepStore(tmp_path / STORE_FILENAME) as store:
            store.submit_job("g", name="g", points=[(0, b"s")])
        digest = hashlib.sha256((tmp_path / STORE_FILENAME).read_bytes()).hexdigest()
        cache = ResultCache(tmp_path)
        cache.lookup(point_key("m:f", {"a": 1}))
        cache.record_history()
        assert [r["misses"] for r in cache.history()] == [1]
        assert (tmp_path / "history.jsonl").exists()
        after = hashlib.sha256((tmp_path / STORE_FILENAME).read_bytes()).hexdigest()
        assert after == digest

    def test_a_fresh_store_has_no_history_table(self, tmp_path):
        SweepStore(tmp_path / STORE_FILENAME).close()
        conn = sqlite3.connect(tmp_path / STORE_FILENAME)
        try:
            tables = {row[0] for row in conn.execute("SELECT name FROM sqlite_master")}
        finally:
            conn.close()
        assert "history" not in tables and {"jobs", "points", "events"} <= tables


class TestOpenRecovery:
    def test_reopen_sees_committed_state(self, tmp_path):
        path = tmp_path / "store.sqlite"
        with SweepStore(path) as store:
            store.submit_job("g", name="g", points=[(0, b"s")])
            store.record_done("g", 0, b"r", worker="w")
        with SweepStore(path) as store:
            assert store.done_payloads("g") == {0: b"r"}

    def test_closed_store_raises(self, tmp_path):
        store = SweepStore(tmp_path / "store.sqlite")
        store.close()
        with pytest.raises(SweepStoreError):
            store.job("g")

    def test_newer_schema_is_refused(self, tmp_path):
        path = tmp_path / "store.sqlite"
        SweepStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(SweepStoreError):
            SweepStore(path)

    def test_garbage_file_is_refused_not_clobbered(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a database " * 100)
        before = set(threading.enumerate())
        with pytest.raises(SweepStoreError):
            SweepStore(path)
        assert path.read_bytes().startswith(b"this is not")
        started = set(threading.enumerate()) - before
        assert not [t for t in started if t.name.startswith("sweep-store-")]


def _run_crash_subprocess(tmp_path, crash_op, crash_mode):
    path = tmp_path / f"crash-{crash_mode}-{crash_op}.sqlite"
    spec = {"path": str(path), "crash_op": crash_op, "crash_mode": crash_mode}
    env = dict(os.environ)
    root = Path(__file__).resolve().parents[2]
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), str(root), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-m", "tests.sweep.store_crash", json.dumps(spec)],
        env=env,
        cwd=root,
        capture_output=True,
        text=True,
        timeout=60,
    )
    return path, proc


class TestCrashRecovery:
    """Kill a real writer at every fsync boundary; reopen; assert prefixes.

    The crash subprocess performs ``1 submit + N (lease event,
    record_done) + 1 state`` calls and ``os._exit``\\ s the whole process
    around the Nth waited commit. Whatever survived must be a *prefix*
    of that sequence, audit rows included — never a torn job (job row
    without its points), never a gap in the done set, never a done row
    without the lease row recorded before it, never an unreadable
    database.
    """

    # All fsync boundaries of the sequence, both sides of the commit.
    BOUNDARIES = [
        (op, mode)
        for op in range(1, CRASH_POINTS + 3)
        for mode in ("before_commit", "after_commit")
    ]

    @pytest.mark.parametrize("crash_op,crash_mode", BOUNDARIES)
    def test_prefix_consistent_after_crash(self, tmp_path, crash_op, crash_mode):
        path, proc = _run_crash_subprocess(tmp_path, crash_op, crash_mode)
        assert proc.returncode == 86, proc.stderr  # the crash hook fired
        # Mutations fully committed before the exit:
        committed = crash_op if crash_mode == "after_commit" else crash_op - 1

        with SweepStore(path) as store:  # recovery is just opening
            job = store.job(CRASH_GRID)
            if committed == 0:
                assert job is None
                assert store.events(CRASH_GRID) == []
                return
            # The submit transaction is atomic: job row + every point row.
            assert job is not None
            assert job["n_points"] == CRASH_POINTS
            assert len(store.load_specs(CRASH_GRID)) == CRASH_POINTS
            done = store.done_payloads(CRASH_GRID)
            expected_done = min(committed - 1, CRASH_POINTS)
            assert sorted(done) == list(range(expected_done))
            for idx, payload in done.items():
                assert payload == b"payload-%d" % idx
            expected_state = (
                JOB_DONE if committed >= CRASH_POINTS + 2 else JOB_SUBMITTED
            )
            assert job["state"] == expected_state
            # The audit trail is the same prefix, in call order: each done
            # row's lease row rode its commit.
            events = store.events(CRASH_GRID)
            assert [e["seq"] for e in events] == sorted(e["seq"] for e in events)
            expected_events = [("submit", None)]
            for idx in range(expected_done):
                expected_events += [("lease", idx), ("done", idx)]
            if committed >= CRASH_POINTS + 2:
                expected_events.append(("state:done", None))
            got = [(e["event"], e["idx"]) for e in events]
            if got != expected_events:
                # Only the idle flush can add to the prefix: the one lease
                # row recorded after the last committed mutation.
                assert got == expected_events + [("lease", expected_done)]
                assert expected_done < CRASH_POINTS

    def test_no_crash_when_hook_beyond_sequence(self, tmp_path):
        path, proc = _run_crash_subprocess(tmp_path, CRASH_POINTS + 99, "after_commit")
        assert proc.returncode == 0, proc.stderr
        with SweepStore(path) as store:
            assert store.job(CRASH_GRID)["state"] == JOB_DONE

