"""Query layer, usage accounting, retention GC, and schema v1->v2 migration."""

import json
import shutil
import sqlite3
from pathlib import Path

import pytest

from repro.cli import main
from repro.errors import SweepStoreError, TransportError
from repro.sweep.cache import grid_fingerprint, point_fingerprint
from repro.sweep.dist.protocol import dump_result, grid_signature
from repro.sweep.dist.query import (
    ReaderPool,
    RetentionPolicy,
    divergences,
    gc_plan,
    query_fingerprint,
    run_gc,
    usage,
)
from repro.sweep.dist.service import ServiceClient, SweepService
from repro.sweep.dist.store import (
    JOB_DONE,
    JOB_RUNNING,
    SweepStore,
    schema_version,
)
from repro.sweep.point import SweepPoint

SNAPSHOT = Path(__file__).parent / "data" / "store_v1.sqlite"


def square(x):
    return x * x


def make_point(x, func=square):
    return SweepPoint(func=func, kwargs={"x": x}, label=f"p{x}")


def indexed(points):
    return list(enumerate(points))


class FakeWall:
    """Deterministic wall clock the retention tests can fast-forward."""

    def __init__(self, start=1_700_000_000.0):
        self.now = float(start)

    def __call__(self):
        self.now += 1.0
        return self.now


@pytest.fixture
def wall():
    return FakeWall()


@pytest.fixture
def store(tmp_path, wall):
    store = SweepStore(tmp_path / "store.sqlite", wall=wall)
    yield store
    store.close()


def seed_job(store, name="fig", tenant="alice", xs=(1, 2), done=True,
             version=None, value_of=lambda x: x * x):
    """Submit one job and (optionally) complete every point."""
    points = [make_point(x) for x in xs]
    work = [(i, p) for i, p in enumerate(points)]
    # Salt the job key by name/tenant: these store-level tests model
    # distinct jobs over overlapping cells (what cross-job queries are
    # for), which a real service would distinguish by submission content.
    grid = __import__("hashlib").sha256(
        f"{name}|{tenant}|{grid_signature(work)}".encode()
    ).hexdigest()
    specs = [
        (i, __import__("pickle").dumps(p),
         point_fingerprint(p.func_path, p.kwargs))
        for i, p in work
    ]
    kwargs = {"tenant": tenant}
    if version is not None:
        kwargs["version"] = version
    assert store.submit_job(grid, name=name, points=specs, **kwargs)
    if done:
        for i, p in work:
            store.record_event(grid, i, "lease", "w0")
            store.record_done(grid, i, dump_result(value_of(p.kwargs["x"]), None),
                              worker="w0")  # records the 'done' event itself
        store.set_job_state(grid, JOB_DONE)
    return grid, work


# -- reader pool ---------------------------------------------------------------
class TestReaderPool:
    def test_missing_file_fails_at_construction(self, tmp_path):
        with pytest.raises(SweepStoreError):
            ReaderPool(tmp_path / "nope.sqlite")

    def test_non_store_file_rejected(self, tmp_path):
        path = tmp_path / "junk.sqlite"
        conn = sqlite3.connect(path)
        conn.execute("CREATE TABLE t (x)")
        conn.commit()
        conn.close()
        with pytest.raises(SweepStoreError):
            ReaderPool(path)

    def test_connections_recycle_and_close(self, store):
        pool = ReaderPool(store.path, size=2)
        with pool.connection() as a:
            pass
        with pool.connection() as b:
            assert b is a  # returned to the pool, reused
        pool.close()
        with pytest.raises(SweepStoreError):
            with pool.connection():
                pass

    def test_readers_cannot_write(self, store):
        with ReaderPool(store.path) as pool:
            with pytest.raises(sqlite3.OperationalError):
                with pool.connection() as conn:
                    conn.execute("INSERT INTO meta VALUES ('x', 'y')")


# -- cross-job queries ---------------------------------------------------------
class TestQueryFingerprint:
    def test_rows_by_fingerprint_across_jobs(self, store):
        seed_job(store, name="fig-a", tenant="alice", xs=(1, 2))
        seed_job(store, name="fig-b", tenant="bob", xs=(2, 3))
        fp = point_fingerprint(make_point(2).func_path, {"x": 2})
        with ReaderPool(store.path) as pool:
            rows = query_fingerprint(pool, fingerprint=fp)
        assert len(rows) == 2  # x=2 appears in both jobs
        assert {r["tenant"] for r in rows} == {"alice", "bob"}
        assert all(r["fingerprint"] == fp for r in rows)
        # Same value, same digest: the cell is version-stable.
        assert len({r["value_digest"] for r in rows}) == 1

    def test_prefix_and_filters(self, store):
        seed_job(store, name="fig-a", tenant="alice", xs=(5,))
        fp = point_fingerprint(make_point(5).func_path, {"x": 5})
        with ReaderPool(store.path) as pool:
            assert query_fingerprint(pool, fingerprint=fp[:10]) \
                == query_fingerprint(pool, fingerprint=fp)
            assert query_fingerprint(pool, tenant="nobody") == []
            assert query_fingerprint(pool, name="fig-a")[0]["job_name"] == "fig-a"

    def test_pending_points_have_no_digest(self, store):
        seed_job(store, xs=(7,), done=False)
        with ReaderPool(store.path) as pool:
            (row,) = query_fingerprint(pool)
        assert row["state"] == "queued"
        assert "value_digest" not in row


class TestDivergences:
    def test_same_value_across_versions_is_clean(self, store):
        seed_job(store, name="a", xs=(1,), version="1.0")
        seed_job(store, name="b", xs=(1,), version="2.0")
        with ReaderPool(store.path) as pool:
            assert divergences(pool) == []

    def test_cross_version_divergence_flagged(self, store):
        seed_job(store, name="a", xs=(1,), version="1.0")
        seed_job(store, name="b", xs=(1,), version="2.0",
                 value_of=lambda x: x * x + 1)
        with ReaderPool(store.path) as pool:
            (entry,) = divergences(pool)
        assert set(entry["versions"]) == {"1.0", "2.0"}
        assert entry["n_results"] == 2
        assert not entry["divergent_within_version"]

    def test_within_version_divergence_is_alarming(self, store):
        seed_job(store, name="a", xs=(1,), version="1.0")
        seed_job(store, name="b", xs=(1,), version="1.0",
                 value_of=lambda x: -x)
        with ReaderPool(store.path) as pool:
            (entry,) = divergences(pool)
        assert entry["divergent_within_version"]


# -- usage accounting ----------------------------------------------------------
class TestUsage:
    def test_per_tenant_day_buckets(self, store):
        seed_job(store, tenant="alice", xs=(1, 2))
        seed_job(store, name="fig2", tenant="bob", xs=(3,))
        with ReaderPool(store.path) as pool:
            report = usage(pool)
        by_tenant = {row["tenant"]: row for row in report["tenants"]}
        assert by_tenant["alice"]["points_done"] == 2
        assert by_tenant["bob"]["points_done"] == 1
        assert by_tenant["alice"]["grids"] == 1
        # Wall seconds: each lease->done pair spans >0 fake-clock ticks.
        assert by_tenant["alice"]["wall_seconds"] > 0

    def test_tenant_filter_and_retry_counts(self, store):
        grid, _ = seed_job(store, tenant="alice", xs=(1,), done=False)
        store.record_event(grid, 0, "lease", "w0")
        store.record_event(grid, 0, "requeue", "w0")
        store.flush()  # audit rows reach other connections with the next commit
        with ReaderPool(store.path) as pool:
            report = usage(pool, tenant="alice")
            empty = usage(pool, tenant="nobody")
        assert report["tenants"][0]["retries"] == 1
        assert report["tenants"][0]["leases"] == 1
        assert empty["tenants"] == []


# -- retention / GC ------------------------------------------------------------
class TestRetention:
    def test_empty_policy_selects_nothing(self, store):
        seed_job(store)
        with ReaderPool(store.path) as pool:
            assert gc_plan(pool, RetentionPolicy()) == []

    def test_age_policy(self, store, wall):
        old, _ = seed_job(store, name="old")
        wall.now += 10_000
        young, _ = seed_job(store, name="young", xs=(9,))
        policy = RetentionPolicy(max_age_seconds=5_000)
        with ReaderPool(store.path) as pool:
            plan = gc_plan(pool, policy, now=wall.now)
        assert [p["grid"] for p in plan] == [old]
        assert plan[0]["why"] == "age"

    def test_keep_latest_per_group(self, store, wall):
        grids = []
        for x in (1, 2, 3):
            g, _ = seed_job(store, name="fig", tenant="alice", xs=(x,))
            grids.append(g)
            wall.now += 100
        policy = RetentionPolicy(keep_latest=1)
        with ReaderPool(store.path) as pool:
            plan = gc_plan(pool, policy, now=wall.now)
        # Oldest first; the newest job survives.
        assert [p["grid"] for p in plan] == grids[:2]
        assert all(p["why"] == "count" for p in plan)

    def test_non_terminal_jobs_never_planned(self, store, wall):
        seed_job(store, done=False)  # stays submitted
        wall.now += 10_000
        policy = RetentionPolicy(max_age_seconds=1)
        with ReaderPool(store.path) as pool:
            assert gc_plan(pool, policy, now=wall.now) == []

    def test_dry_run_parity_with_real_run(self, store, wall):
        seed_job(store, name="a", xs=(1,))
        seed_job(store, name="b", xs=(2,))
        wall.now += 10_000
        policy = RetentionPolicy(max_age_seconds=1)
        dry = run_gc(store, policy, dry_run=True, now=wall.now)
        assert dry["collected"] == [] and dry["refused"] == []
        real = run_gc(store, policy, dry_run=False, now=wall.now)
        assert [p["grid"] for p in real["planned"]] \
            == [p["grid"] for p in dry["planned"]]
        assert {c["grid"] for c in real["collected"]} \
            == {p["grid"] for p in dry["planned"]}
        assert real["refused"] == []

    def test_collect_refuses_active_lease(self, store, wall):
        grid, _ = seed_job(store, xs=(1,), done=False)
        store.record_event(grid, 0, "lease", "w0")
        store.set_job_state(grid, JOB_DONE)  # terminal, but lease dangling
        result = store.collect_job(grid, lease_grace=300.0)
        assert result == {"grid": grid, "collected": False,
                          "refused": "active-lease"}
        # Once the lease event ages past the grace window, collection goes
        # through (cancelled jobs never settle their leases otherwise).
        wall.now += 1_000
        result = store.collect_job(grid, lease_grace=300.0)
        assert result["collected"]

    def test_collect_refusal_taxonomy(self, store):
        assert store.collect_job("no-such-grid")["refused"] == "unknown"
        grid, _ = seed_job(store, done=False)
        assert store.collect_job(grid)["refused"] == "not-terminal"

    def test_tombstone_short_circuits_resubmission(self, store):
        grid, work = seed_job(store, xs=(1, 2))
        assert store.collect_job(grid)["collected"]
        tomb = store.tombstone(grid)
        assert tomb["n_points"] == 2 and tomb["points_done"] == 2
        # Bulk rows are gone and resubmission is refused.
        assert store.job(grid) is None
        assert store.done_payloads(grid) == {}
        assert not store.submit_job(grid, name="again", points=[(0, b"x")])
        assert store.collect_job(grid)["refused"] == "already-collected"


# -- schema v1 -> v2 migration -------------------------------------------------
class TestMigration:
    def _raw(self, path, sql, params=()):
        conn = sqlite3.connect(f"file:{path}?mode=ro", uri=True)
        try:
            return conn.execute(sql, params).fetchall()
        finally:
            conn.close()

    def _tables(self, path):
        return {row[0] for row in self._raw(path, "SELECT name FROM sqlite_master")}

    def test_snapshot_migrates_with_payloads_byte_identical(self, tmp_path):
        path = tmp_path / "store.sqlite"
        shutil.copy(SNAPSHOT, path)
        assert schema_version(path) == 1
        assert "history" in self._tables(path)
        before = dict(
            (tuple(row[:2]), row[2])
            for row in self._raw(
                path, "SELECT grid, idx, payload FROM points"
                " WHERE payload IS NOT NULL"
            )
        )
        assert before  # the snapshot carries real payloads
        store = SweepStore(path)
        try:
            assert schema_version(path) == 2
            # Nothing wrote the v1 ``history`` table: migration drops it.
            assert "history" not in self._tables(path)
            after = dict(
                (tuple(row[:2]), row[2])
                for row in self._raw(
                    path, "SELECT grid, idx, payload FROM points"
                    " WHERE payload IS NOT NULL"
                )
            )
            assert after == before  # byte-identical result payloads
            # Every point's fingerprint was backfilled from its spec and
            # matches a fresh recomputation.
            fps = self._raw(path, "SELECT spec, fingerprint FROM points")
            import pickle

            for spec, fp in fps:
                point = pickle.loads(spec)
                assert fp == point_fingerprint(point.func_path, point.kwargs)
            # And v4-era payloads still decode (wire history contract).
            from repro.sweep.dist.protocol import load_result

            for payload in after.values():
                load_result(payload)
        finally:
            store.close()

    def test_migrated_store_is_queryable(self, tmp_path):
        path = tmp_path / "store.sqlite"
        shutil.copy(SNAPSHOT, path)
        SweepStore(path).close()
        with ReaderPool(path) as pool:
            rows = query_fingerprint(pool)
            report = usage(pool)
        assert len(rows) == 5
        assert {r["tenant"] for r in rows} == {"alice", "bob"}
        assert {t["tenant"] for t in report["tenants"]} == {"alice", "bob"}

    def test_migration_is_idempotent(self, tmp_path):
        path = tmp_path / "store.sqlite"
        shutil.copy(SNAPSHOT, path)
        SweepStore(path).close()
        SweepStore(path).close()  # second open: nothing to do, no error
        assert schema_version(path) == 2
        assert "history" not in self._tables(path)


# -- service wire commands -----------------------------------------------------
@pytest.fixture
def service(tmp_path):
    service = SweepService(
        tmp_path / "svc.sqlite", host="127.0.0.1", port=0, lease_seconds=5.0
    )
    service.start()
    yield service
    service.request_stop()
    service.stop()


def run_job(service, client, name, tenant, xs):
    """Submit a job and complete every point over the real wire."""
    from repro.transport.redis_backend import MiniRedisConnection
    from repro.sweep.dist.protocol import Assignment

    work = [(i, make_point(x)) for i, x in enumerate(xs)]
    grid = client.submit(name, work, tenant=tenant)["grid"]
    for _ in work:
        conn = MiniRedisConnection(service.host, service.port, timeout=5.0)
        try:
            assignment = Assignment.from_bytes(bytes(conn.command("CLAIM", "w0")))
            value = assignment.point.call()
            conn.command(
                "DONE", "w0", str(assignment.index), assignment.grid,
                dump_result(value, None),
            )
        finally:
            conn.close()
    return grid


class TestServiceCommands:
    def test_query_usage_gc_over_the_wire(self, service):
        client = ServiceClient(f"{service.host}:{service.port}")
        run_job(service, client, "fig-a", "alice", [1, 2])
        run_job(service, client, "fig-b", "bob", [2])
        fp = point_fingerprint(make_point(2).func_path, {"x": 2})

        report = client.query(fingerprint=fp)
        assert len(report["rows"]) == 2
        assert report["divergences"] == []

        accounting = client.usage()
        assert {t["tenant"] for t in accounting["tenants"]} == {"alice", "bob"}

        plan = client.gc(max_age_seconds=0, dry_run=True)
        assert plan["dry_run"] and len(plan["planned"]) == 2
        assert plan["collected"] == []

    def test_gc_apply_evicts_and_tombstones(self, service):
        client = ServiceClient(f"{service.host}:{service.port}")
        grid = run_job(service, client, "fig-a", "alice", [1])
        report = client.gc(max_age_seconds=0, dry_run=False)
        assert [c["grid"] for c in report["collected"]] == [grid]
        assert grid not in service.jobs
        # STATUS now names the tombstone, and resubmission short-circuits.
        with pytest.raises(TransportError, match="collected"):
            client.status(grid)
        again = client.submit("fig-a", [(0, make_point(1))], tenant="alice")
        assert not again["created"] and again["state"] == "collected"

    def test_query_survives_unrelated_gc(self, service):
        client = ServiceClient(f"{service.host}:{service.port}")
        keep = run_job(service, client, "keep", "alice", [5])
        run_job(service, client, "victim", "bob", [6])
        fp = point_fingerprint(make_point(5).func_path, {"x": 5})
        before = client.query(fingerprint=fp)["rows"]
        report = client.gc(name="victim", max_age_seconds=0, dry_run=False)
        assert len(report["collected"]) == 1
        after = client.query(fingerprint=fp)["rows"]
        assert after == before
        assert after[0]["grid"] == keep

    def test_bad_spec_rejected(self, service):
        from repro.transport.redis_backend import MiniRedisConnection

        conn = MiniRedisConnection(service.host, service.port, timeout=5.0)
        try:
            with pytest.raises(TransportError, match="JSON"):
                conn.command("QUERY", "not-json{")
        finally:
            conn.close()


# -- CLI -----------------------------------------------------------------------
class TestCli:
    @pytest.fixture
    def migrated(self, tmp_path):
        path = tmp_path / "store.sqlite"
        shutil.copy(SNAPSHOT, path)
        SweepStore(path).close()
        return path

    def test_query_table_and_json(self, migrated, capsys):
        assert main(["sweep", "query", "--store", str(migrated)]) == 0
        out = capsys.readouterr().out
        assert "FINGERPRINT" in out and "alice" in out and "bob" in out
        assert main(["sweep", "query", "--store", str(migrated), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 5

    def test_usage_table(self, migrated, capsys):
        assert main(["sweep", "usage", "--store", str(migrated)]) == 0
        out = capsys.readouterr().out
        assert "TENANT" in out and "alice" in out

    def test_gc_dry_run_then_apply(self, migrated, capsys):
        assert main(["sweep", "gc", "--store", str(migrated),
                     "--max-age", "0"]) == 0
        assert "DRY RUN" in capsys.readouterr().out
        assert main(["sweep", "gc", "--store", str(migrated),
                     "--max-age", "0", "--apply", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["collected"]) == 1  # only alice's job is terminal
        assert doc["refused"] == []

    def test_maintenance_needs_exactly_one_target(self, migrated):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="exactly one"):
            main(["sweep", "query"])
        with pytest.raises(ConfigError, match="exactly one"):
            main(["sweep", "query", "--store", str(migrated),
                  "--at", "127.0.0.1:1"])

    def test_gc_flags_rejected_elsewhere(self, migrated):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="--apply"):
            main(["sweep", "query", "--store", str(migrated), "--apply"])
        with pytest.raises(ConfigError, match="--fingerprint"):
            main(["sweep", "usage", "--store", str(migrated),
                  "--fingerprint", "ab"])


# -- engine integration --------------------------------------------------------
def test_grid_fingerprint_recorded_in_cache_history(tmp_path):
    from repro.sweep import SweepEngine, SweepOptions
    from repro.sweep.cache import ResultCache

    points = [make_point(x) for x in (1, 2)]
    engine = SweepEngine(SweepOptions(cache_dir=tmp_path / "cache"))
    engine.run(points)
    cache = ResultCache(tmp_path / "cache")
    (record,) = cache.history()
    assert record["fingerprint"] == grid_fingerprint(enumerate(points))
