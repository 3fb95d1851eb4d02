"""Read-side query layer over the sweep-service store.

:mod:`repro.sweep.dist.store` is deliberately write-mostly: every
mutation runs on its one read-write connection under the store lock,
one at a time in call order, which is what makes the durability proofs
tractable. This module is the other
half — the queries a long-lived multi-tenant service accumulates value
for:

* **cross-job result queries** keyed by *point fingerprint* (the
  version-independent cell identity of
  :func:`repro.sweep.cache.point_fingerprint`): "every result ever
  recorded for this canonical kwargs fingerprint, across jobs, tenants,
  and ``repro`` versions" — plus version-divergence detection that
  flags fingerprints whose result *values* differ between code versions
  (the canary for a behaviour change that forgot its version bump);
* **lease intervals**: the one pairing of each ``lease`` row with the
  row that settled it, which usage bills and the service's fleet trace
  draws (:func:`fleet_tracer`);
* **per-tenant usage accounting** aggregated from the ``events``
  table: points executed, wall-seconds leased, retries and poison
  counts per tenant per day;
* a **retention/GC policy engine**: age- and count-based selection over
  *terminal* jobs only, a dry-run mode whose plan is exactly what the
  real run collects, and tombstones so idempotent re-submission still
  short-circuits after the bulk rows are gone.

Concurrency model — **readers beside the store's locked connection**:

Everything here reads through a :class:`ReaderPool` of *read-only*
SQLite connections (URI ``mode=ro``). Under WAL, readers never block
the store's writes and never see a half-committed transaction — each
query gets the last committed snapshot. That is what lets the service
answer QUERY/USAGE from its request threads without taking the store
lock (where a read would wait behind result fsyncs), and what lets the
CLI interrogate a *live* service's store file from another process.
The one mutating operation — actually collecting a job — is explicitly
NOT here: :func:`run_gc` plans through the pool, then hands each doomed
grid to :meth:`SweepStore.collect_job`, which re-checks every refusal
condition under the store lock. The plan is an intention; the store is
the judge.

Library use::

    from repro.sweep.dist.query import ReaderPool, query_fingerprint

    with ReaderPool(store_path) as pool:
        rows = query_fingerprint(pool, fp)

Thread-safety: :class:`ReaderPool` is safe to share across threads
(checkouts are lock-protected and overflow opens a throwaway
connection); the module-level functions are pure reads and inherit that
safety. Durability: none needed — nothing here writes.
"""

from __future__ import annotations

import hashlib
import pickle
import sqlite3
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from repro.errors import SweepStoreError
from repro.sweep.cache import fingerprint as _canonical_fingerprint
from repro.sweep.dist.store import JOB_TERMINAL, SweepStore
from repro.telemetry.tracing import Tracer

__all__ = [
    "LeaseInterval",
    "ReaderPool",
    "RetentionPolicy",
    "divergences",
    "fleet_tracer",
    "gc_plan",
    "lease_intervals",
    "query_fingerprint",
    "run_gc",
    "session_events",
    "usage",
]


class ReaderPool:
    """A bounded pool of read-only SQLite connections to one store file.

    The second half of the store's concurrency model: the
    :class:`~repro.sweep.dist.store.SweepStore` owns the only read-write
    connection, behind its lock, and every query-layer read goes through
    here instead — read-only (URI ``mode=ro``: a pool can never create,
    recover, or migrate a store) and WAL-snapshot-isolated, so reads
    neither block the store's writes nor queue behind its fsyncs.

    Thread-safe: connections are checked out under a lock; when the pool
    is empty a temporary connection is opened and closed after use, so
    checkout never blocks on other readers. Connections are only
    returned to the pool on clean release; a reader that raised gets its
    connection closed (SQLite read transactions are otherwise easy to
    leak open, pinning WAL frames forever).
    """

    def __init__(self, path: str | Path, size: int = 4, timeout: float = 5.0) -> None:
        self.path = Path(path)
        self.size = max(1, int(size))
        self.timeout = float(timeout)
        self._idle: list[sqlite3.Connection] = []
        self._lock = threading.Lock()
        self._closed = False
        # Open one eagerly so a missing/garbage file fails at pool
        # construction, not on the first query.
        conn = self._open()
        with self._lock:
            self._idle.append(conn)

    def _open(self) -> sqlite3.Connection:
        try:
            conn = sqlite3.connect(
                f"file:{self.path}?mode=ro",
                uri=True,
                timeout=self.timeout,
                check_same_thread=False,
            )
        except sqlite3.Error as exc:
            raise SweepStoreError(
                f"cannot open store {self.path} read-only: {exc}"
            ) from exc
        conn.row_factory = sqlite3.Row
        try:
            conn.execute("SELECT 1 FROM meta LIMIT 1").fetchone()
        except sqlite3.Error as exc:
            conn.close()
            raise SweepStoreError(
                f"{self.path} is not a sweep store: {exc}"
            ) from exc
        return conn

    @contextmanager
    def connection(self) -> Iterator[sqlite3.Connection]:
        """Check a read-only connection out of the pool for one query."""
        if self._closed:
            raise SweepStoreError(f"reader pool for {self.path} is closed")
        with self._lock:
            conn = self._idle.pop() if self._idle else None
        if conn is None:
            conn = self._open()
        try:
            yield conn
        except BaseException:
            conn.close()
            raise
        else:
            with self._lock:
                if not self._closed and len(self._idle) < self.size:
                    self._idle.append(conn)
                    conn = None
            if conn is not None:
                conn.close()

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    def __enter__(self) -> "ReaderPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


# -- cross-job result queries -------------------------------------------------
def _value_digest(payload: Optional[bytes]) -> Optional[str]:
    """A stable digest of the *value* inside one result wire payload.

    Divergence detection must compare computations, not envelopes: the
    raw payload bytes embed the wire-format tag and the telemetry
    snapshot, both of which legitimately change between versions. So
    the value is unpickled out and digested via the cache's canonical
    rendering (:func:`repro.sweep.cache.fingerprint` — the same
    function that makes cache keys portable across processes), falling
    back to a digest of the value's own pickle for exotic values the
    canonical renderer refuses. None when the payload is missing or
    unreadable.
    """
    if payload is None:
        return None
    try:
        decoded = pickle.loads(payload)
    except Exception:
        return None
    value = decoded.get("value") if isinstance(decoded, dict) else decoded
    try:
        material = _canonical_fingerprint(value)
    except Exception:
        try:
            material = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL).hex()
        except Exception:
            return None
    return hashlib.sha256(material.encode("utf-8")).hexdigest()


def query_fingerprint(
    pool: ReaderPool,
    fingerprint: Optional[str] = None,
    name: Optional[str] = None,
    tenant: Optional[str] = None,
    limit: int = 1000,
) -> list[dict]:
    """All recorded results matching a fingerprint (and/or job filters).

    One row per point row in the store, across every job that ever
    contained the cell — different tenants resubmitting the same grid,
    different code versions recomputing it, journal imports. Rows are
    ordered newest job first, then by index. Each carries::

        {"fingerprint", "grid", "idx", "state", "worker", "job_name",
         "tenant", "version", "job_state", "updated", "value_digest"}

    ``value_digest`` (see :func:`_value_digest`) is only present for
    ``done`` points; comparing it across rows with equal fingerprints
    but different ``version`` is exactly the divergence check.
    """
    clauses = ["p.fingerprint IS NOT NULL"]
    params: list[Any] = []
    if fingerprint:
        # Accept an unambiguous prefix — fingerprints are long hex
        # strings nobody should have to paste in full.
        clauses.append("p.fingerprint LIKE ?")
        params.append(f"{fingerprint}%")
    if name:
        clauses.append("j.name = ?")
        params.append(name)
    if tenant:
        clauses.append("j.tenant = ?")
        params.append(tenant)
    sql = (
        "SELECT p.fingerprint AS fingerprint, p.grid AS grid, p.idx AS idx,"
        " p.state AS state, p.worker AS worker, p.payload AS payload,"
        " p.updated AS updated, j.name AS job_name, j.tenant AS tenant,"
        " j.version AS version, j.state AS job_state"
        " FROM points p JOIN jobs j ON j.grid = p.grid"
        f" WHERE {' AND '.join(clauses)}"
        " ORDER BY j.created DESC, p.idx LIMIT ?"
    )
    params.append(int(limit))
    with pool.connection() as conn:
        rows = conn.execute(sql, params).fetchall()
    out = []
    for row in rows:
        record = {
            "fingerprint": row["fingerprint"],
            "grid": row["grid"],
            "idx": int(row["idx"]),
            "state": row["state"],
            "worker": row["worker"],
            "job_name": row["job_name"],
            "tenant": row["tenant"],
            "version": row["version"],
            "job_state": row["job_state"],
            "updated": row["updated"],
        }
        if row["state"] == "done":
            record["value_digest"] = _value_digest(row["payload"])
        out.append(record)
    return out


def divergences(
    pool: ReaderPool,
    fingerprint: Optional[str] = None,
    name: Optional[str] = None,
    tenant: Optional[str] = None,
    limit: int = 100000,
) -> list[dict]:
    """Fingerprints whose done results *differ between code versions*.

    The determinism contract says a cell's value is a pure function of
    its kwargs; a version bump is *allowed* to change it (that is why
    cache keys embed the version), but silently — same version, or an
    unbumped behaviour change — it must not. This query surfaces every
    fingerprint with at least two distinct ``(version, value_digest)``
    behaviours where the digests disagree::

        {"fingerprint", "versions": {version: [digest, ...]},
         "n_results", "divergent_within_version"}

    ``divergent_within_version`` is the alarming half: two different
    digests under the *same* version means nondeterminism or a stale
    unbumped binary, not an intentional change.
    """
    rows = query_fingerprint(
        pool, fingerprint=fingerprint, name=name, tenant=tenant, limit=limit
    )
    by_fp: dict[str, list[dict]] = {}
    for row in rows:
        if row.get("value_digest"):
            by_fp.setdefault(row["fingerprint"], []).append(row)
    out = []
    for fp, results in sorted(by_fp.items()):
        digests = {r["value_digest"] for r in results}
        if len(digests) < 2:
            continue
        versions: dict[str, list[str]] = {}
        for r in results:
            bucket = versions.setdefault(r["version"] or "?", [])
            if r["value_digest"] not in bucket:
                bucket.append(r["value_digest"])
        out.append(
            {
                "fingerprint": fp,
                "versions": {v: sorted(d) for v, d in versions.items()},
                "n_results": len(results),
                "divergent_within_version": any(
                    len(d) > 1 for d in versions.values()
                ),
            }
        )
    return out


# -- lease intervals ----------------------------------------------------------
#: Settle rows by the lease outcome they stand for.
_SETTLES = {"done": "done", "reclaim": "reclaim", "requeue": "requeue",
            "poisoned": "poison"}


class LeaseInterval(NamedTuple):
    """A ``lease`` row, the row that settled it (None while the lease is
    open), and which of its point's leases in the rows it is (1 = first)."""

    lease: Mapping[str, Any]
    settle: Optional[Mapping[str, Any]]
    number: int


def lease_intervals(rows: Iterable[Mapping[str, Any]]) -> list[LeaseInterval]:
    """Pair each ``lease`` row with its point's next ``done``/``reclaim``/
    ``requeue``/``poisoned`` row; ``rows`` are ``events`` rows in ``seq``
    order.

    A settle row with no lease open (a stale worker's late DONE) pairs
    with nothing; a lease issued again before anything settled it (its
    service died holding it) replaces the first. Closed intervals come in
    settle order, then open ones by ``(grid, idx)``.
    """
    open_: dict[tuple[str, int], LeaseInterval] = {}
    numbers: dict[tuple[str, int], int] = {}
    closed: list[LeaseInterval] = []
    for row in rows:
        point = (row["grid"], row["idx"])
        if row["event"] == "lease":
            numbers[point] = numbers.get(point, 0) + 1
            open_[point] = LeaseInterval(row, None, numbers[point])
        elif row["event"] in _SETTLES and point in open_:
            closed.append(open_.pop(point)._replace(settle=row))
    return closed + [open_[point] for point in sorted(open_)]


def session_events(pool: ReaderPool, after_seq: int) -> list[dict]:
    """The ``events`` rows after ``after_seq`` (a service session's), plus
    the earlier ``done`` rows of each grid the session restored."""
    with pool.connection() as conn:
        rows = conn.execute(
            "SELECT seq, grid, idx, event, worker, time FROM events"
            " WHERE seq > ?1 OR (event = 'done' AND grid IN ("
            "  SELECT grid FROM events WHERE seq > ?1 AND event = 'restore'))"
            " ORDER BY seq",
            (int(after_seq),),
        ).fetchall()
    return [dict(row) for row in rows]


def fleet_tracer(
    rows: Sequence[Mapping[str, Any]],
    after_seq: int,
    now: float,
    worker_spans: Iterable[tuple[str, Mapping[str, Any]]] = (),
) -> Tracer:
    """A service session's fleet trace, rebuilt from :func:`session_events`.

    Each session lease is a ``lease p<idx>`` span on its holder's lane of
    the ``coordinator`` track (lanes numbered in settle order), ended by
    its settle row or, still open, at ``now``. A ``reclaim`` adds a
    ``steal`` instant on that lane; a ``poisoned`` row, a ``quarantine``
    instant counting the point's failures this session; a ``restore``
    row, one ``replay`` instant per ``done`` row its grid had before the
    session. ``worker_spans`` are ``(track, span)`` pairs as
    :func:`~repro.sweep.dist.protocol.load_spans` decodes them.
    """
    tracer = Tracer(clock=lambda: now)
    session = [row for row in rows if row["seq"] > after_seq]
    lanes: dict[str, int] = {}
    for lease, settle, number in lease_intervals(session):
        index, holder, start = lease["idx"], lease["worker"], lease["time"]
        lane = lanes.setdefault(holder, len(lanes) + 1)
        end = now if settle is None else settle["time"]
        outcome = "open" if settle is None else _SETTLES[settle["event"]]
        tracer.add_span(
            f"lease p{index}", start, max(0.0, end - start), category="lease",
            pid="coordinator", tid=lane, index=index, worker=holder,
            outcome=outcome, trace_id=lease["grid"][:16],
            span_id=f"{index}/{number}",
        )
        if outcome == "reclaim":
            tracer.instant("steal", category="lease", pid="coordinator",
                           tid=lane, time=end, index=index,
                           worker=settle["worker"])
    replayed: dict[str, list[int]] = {}
    failures: dict[tuple[str, int], int] = {}
    for row in rows:
        point = (row["grid"], row["idx"])
        if row["seq"] <= after_seq:
            if row["event"] == "done":
                replayed.setdefault(row["grid"], []).append(row["idx"])
        elif row["event"] in ("requeue", "poisoned"):
            failures[point] = failures.get(point, 0) + 1
            if row["event"] == "poisoned":
                tracer.instant("quarantine", category="poison",
                               pid="coordinator", time=row["time"],
                               index=row["idx"], failures=failures[point])
        elif row["event"] == "restore":
            for index in replayed.get(row["grid"], ()):
                tracer.instant("replay", category="journal", pid="coordinator",
                               time=row["time"], index=index)
    for track, span in worker_spans:
        tracer.add_span(span["name"], span["start"], span["end"] - span["start"],
                        category=span["category"], pid=track, tid=span["tid"],
                        **span["args"])
    return tracer


# -- usage accounting ---------------------------------------------------------
def _day(ts: float) -> str:
    return time.strftime("%Y-%m-%d", time.gmtime(float(ts)))


def usage(
    pool: ReaderPool,
    tenant: Optional[str] = None,
    since: Optional[float] = None,
) -> dict:
    """Per-tenant per-day usage accounting from ``events``.

    Returns ``{"tenants": [...]}``. Each tenant row is
    one ``(tenant, day)`` bucket (UTC days, newest last)::

        {"tenant", "day", "points_done", "leases", "wall_seconds",
         "retries", "reclaims", "poisoned", "grids"}

    ``wall_seconds`` is real leased wall time: the settled
    :func:`lease_intervals` summed into the day each lease *started* (a
    lease still dangling at query time contributes nothing — billing
    only settled work keeps repeated queries monotone), the same
    intervals the fleet trace draws as lease spans. ``retries`` counts
    ``requeue`` events (failures re-queued below the poison
    thresholds).

    Jobs already garbage-collected have no events left by design —
    usage reports live+terminal jobs; collect after you account.
    """
    params: list[Any] = []
    clauses = ["1=1"]
    if tenant is not None:
        clauses.append("j.tenant = ?")
        params.append(tenant)
    if since is not None:
        clauses.append("e.time >= ?")
        params.append(float(since))
    sql = (
        "SELECT e.grid AS grid, e.idx AS idx, e.event AS event,"
        " e.time AS time, j.tenant AS tenant"
        " FROM events e JOIN jobs j ON j.grid = e.grid"
        f" WHERE {' AND '.join(clauses)} ORDER BY e.seq"
    )
    with pool.connection() as conn:
        events = conn.execute(sql, params).fetchall()

    buckets: dict[tuple[str, str], dict] = {}
    grids_seen: dict[tuple[str, str], set] = {}

    def bucket(tenant_: str, day: str) -> dict:
        key = (tenant_, day)
        if key not in buckets:
            buckets[key] = {
                "tenant": tenant_,
                "day": day,
                "points_done": 0,
                "leases": 0,
                "wall_seconds": 0.0,
                "retries": 0,
                "reclaims": 0,
                "poisoned": 0,
                "grids": 0,
            }
            grids_seen[key] = set()
        return buckets[key]

    counted = {
        "lease": "leases",
        "done": "points_done",
        "reclaim": "reclaims",
        "requeue": "retries",
        "poisoned": "poisoned",
    }
    for row in events:
        day = _day(row["time"])
        entry = bucket(row["tenant"], day)
        grids_seen[(row["tenant"], day)].add(row["grid"])
        if row["event"] in counted:
            entry[counted[row["event"]]] += 1
    for interval in lease_intervals(events):
        if interval.settle is not None:
            # Billed to the day the lease started, even if it settled
            # after midnight — one interval, one bucket.
            started = float(interval.lease["time"])
            entry = bucket(interval.lease["tenant"], _day(started))
            entry["wall_seconds"] += max(
                0.0, float(interval.settle["time"]) - started
            )
    for key, entry in buckets.items():
        entry["grids"] = len(grids_seen[key])
        entry["wall_seconds"] = round(entry["wall_seconds"], 6)
    return {"tenants": [buckets[k] for k in sorted(buckets)]}


# -- retention / GC -----------------------------------------------------------
@dataclass(frozen=True)
class RetentionPolicy:
    """What the GC may eat. Terminal jobs only, always.

    ``max_age_seconds`` — collect terminal jobs whose last update is
    older than the horizon. ``keep_latest`` — additionally keep only
    the N most recently updated terminal jobs per ``(name, tenant)``
    group and collect the rest, however young. Either may be None
    (criterion disabled); with both None the policy selects nothing —
    an empty policy must be harmless, not greedy. ``tenant`` / ``name``
    scope the sweep. ``lease_grace`` is forwarded to
    :meth:`SweepStore.collect_job`'s dangling-lease refusal.
    """

    max_age_seconds: Optional[float] = None
    keep_latest: Optional[int] = None
    tenant: Optional[str] = None
    name: Optional[str] = None
    lease_grace: float = 300.0
    states: frozenset = field(default_factory=lambda: frozenset(JOB_TERMINAL))

    def describe(self) -> dict:
        return {
            "max_age_seconds": self.max_age_seconds,
            "keep_latest": self.keep_latest,
            "tenant": self.tenant,
            "name": self.name,
            "lease_grace": self.lease_grace,
            "states": sorted(self.states),
        }


def gc_plan(
    pool: ReaderPool,
    policy: RetentionPolicy,
    now: Optional[float] = None,
) -> list[dict]:
    """The jobs ``policy`` selects for collection, oldest first.

    Pure read — this IS the dry run. The real run
    (:func:`run_gc`) collects exactly this list, minus anything the
    writer-side re-check refuses (a refusal shows up in the report, so
    dry-run/real-run divergence is visible, never silent). Each entry::

        {"grid", "name", "tenant", "state", "updated", "why"}
    """
    now = time.time() if now is None else float(now)
    clauses = [f"state IN ({','.join('?' * len(policy.states))})"]
    params: list[Any] = sorted(policy.states)
    if policy.tenant is not None:
        clauses.append("tenant = ?")
        params.append(policy.tenant)
    if policy.name is not None:
        clauses.append("name = ?")
        params.append(policy.name)
    with pool.connection() as conn:
        rows = [
            dict(r)
            for r in conn.execute(
                "SELECT grid, name, tenant, state, updated FROM jobs"
                f" WHERE {' AND '.join(clauses)} ORDER BY updated DESC",
                params,
            ).fetchall()
        ]
    doomed: dict[str, str] = {}  # grid -> why
    if policy.max_age_seconds is not None:
        horizon = now - float(policy.max_age_seconds)
        for row in rows:
            if float(row["updated"]) < horizon:
                doomed[row["grid"]] = "age"
    if policy.keep_latest is not None:
        kept: dict[tuple[str, str], int] = {}
        for row in rows:  # newest first per ORDER BY
            group = (row["name"], row["tenant"])
            kept[group] = kept.get(group, 0) + 1
            if kept[group] > int(policy.keep_latest):
                doomed.setdefault(row["grid"], "count")
    plan = [
        {**row, "why": doomed[row["grid"]]}
        for row in rows
        if row["grid"] in doomed
    ]
    plan.sort(key=lambda r: float(r["updated"]))  # oldest collected first
    return plan


def run_gc(
    store: SweepStore,
    policy: RetentionPolicy,
    dry_run: bool = False,
    now: Optional[float] = None,
    pool: Optional[ReaderPool] = None,
) -> dict:
    """Plan and (unless ``dry_run``) collect; returns the full report.

    Planning reads through a :class:`ReaderPool` (the given one, or a
    transient one over ``store.path``); collection hands each planned
    grid to :meth:`SweepStore.collect_job`, which re-validates
    everything (terminal? tombstoned meanwhile? dangling lease?) under
    the store lock — the plan carries no authority across the
    read/write boundary. Report::

        {"policy": ..., "dry_run": bool,
         "planned":   [plan entries],
         "collected": [collect_job results],   # empty when dry_run
         "refused":   [collect_job refusals]}  # empty when dry_run
    """
    own_pool = pool is None
    if pool is None:
        pool = ReaderPool(store.path)
    try:
        planned = gc_plan(pool, policy, now=now)
    finally:
        if own_pool:
            pool.close()
    report: dict[str, Any] = {
        "policy": policy.describe(),
        "dry_run": bool(dry_run),
        "planned": planned,
        "collected": [],
        "refused": [],
    }
    if dry_run:
        return report
    for entry in planned:
        result = store.collect_job(
            entry["grid"],
            reason=f"policy:{entry['why']}",
            lease_grace=policy.lease_grace,
        )
        if result.get("collected"):
            report["collected"].append(result)
        else:
            report["refused"].append(result)
    return report
