"""SQLite-backed job/results/telemetry store for the sweep service.

One queryable database per service — standalone, or embedded by
``repro sweep --serve`` in its ``--journal`` directory. The durability
contract: a completed point is committed *before* its worker is
acknowledged, so a SIGKILLed service restarted against the same file
serves every acknowledged result from disk. Many named grids live side
by side, keyed by their content signature, and "all fig6 points ever
run, any version" is one indexed query.

Concurrency model — **one connection behind one lock**:

The store owns one read-write connection. Every public method runs its
SQL on the caller's thread while holding the store lock, so calls from
any thread apply one at a time and write ordering is call ordering (the
crash-recovery tests rely on that prefix property). A store call costs
its SQL and, for a mutation, its commit; no thread hand-off.

The one call that does not commit is :meth:`SweepStore.record_event`:
audit rows (lease/reclaim/requeue/restore) promise nothing to anyone,
so it inserts them in call order into a transaction it leaves open, and
they commit with the next waited mutation (one fsync per point, not
two), with :meth:`SweepStore.flush`, with ``close()``, or
:data:`AUDIT_FLUSH_SECONDS` after the first pending row. That idle
deadline is kept by a small daemon ticker thread, which takes the lock
only to commit such rows. Reads through the store see them at once; a
second connection does not until that commit, and a crash inside the
window drops them — nothing restores from audit rows.

Durability and torn-write recovery:

* ``journal_mode=WAL`` + ``synchronous=FULL`` — committed transactions
  survive power loss, and readers on other connections never block
  the store's writes;
* every waited mutating call commits before it returns, together with
  the audit rows recorded since the previous commit — a crash mid-call
  (any fsync boundary) rolls back on the next open, so the store is
  always a *prefix* of the call sequence: no half-applied DONE, ever;
* :meth:`SweepStore.open` runs SQLite's own WAL/hot-journal recovery,
  then ``PRAGMA quick_check`` — real corruption (not just a torn tail)
  raises :class:`~repro.errors.SweepStoreError` instead of silently
  serving damaged results;
* the ``meta`` table carries ``schema_version`` so future schema changes
  migrate explicitly instead of guessing from table shapes.

Schema (version 2)::

    meta       (key PRIMARY KEY, value)
    jobs       (grid PRIMARY KEY, name, tenant, n_points, state,
                version, created, updated)
    points     (grid, idx PRIMARY KEY(grid, idx), state, worker,
                spec BLOB, payload BLOB, failures TEXT, updated,
                fingerprint)                       -- v2, indexed
    events     (seq AUTOINCREMENT, grid, idx, event, worker, time)
    tombstones (grid PRIMARY KEY, name, tenant, n_points, state,
                version, created, collected, points_done, reason)

``points.spec`` holds the pickled :class:`~repro.sweep.point.SweepPoint`
so a restarted service can re-serve unfinished jobs without the tenant
resubmitting; ``points.payload`` holds the pickled (value, snapshot)
wire blob exactly as the worker shipped it, which is what makes restart
results byte-identical. Cache hit rates live in the cache directory's
``history.jsonl`` (:meth:`repro.sweep.cache.ResultCache.record_history`),
not here: opening a store drops the ``history`` table older stores carry.

Version 2 additions (see :mod:`repro.sweep.dist.query` for the read
side):

* ``points.fingerprint`` — the *version-independent* content identity of
  the cell (:func:`repro.sweep.cache.point_fingerprint`), indexed, so
  "every result for this cell across jobs, tenants, and ``repro``
  versions" is one indexed join;
* ``tombstones`` — one row per garbage-collected job, so idempotent
  re-submission still short-circuits after the job's bulk rows are gone
  (:meth:`SweepStore.collect_job`).

Usage accounting (:func:`repro.sweep.dist.query.usage`) aggregates
``events`` directly; the ``usage_daily`` view early v2 stores carried is
dropped on open.

Opening a v1 store migrates it in place inside the constructor, before
the first caller can touch it: the fingerprint column is added and
**backfilled** by unpickling each stored spec (specs that no longer
unpickle are left NULL — still collectable, just not
cross-version-queryable), then ``schema_version`` flips to 2. The
migration is idempotent and crash-safe: every step guards on current
shape (column present? version row updated?), so a process killed
mid-migration simply re-enters it on the next open. Payload bytes are
never touched, so migration preserves byte-identical result replay.
Stores newer than the running code are refused, same as v1.
"""

from __future__ import annotations

import json
import os
import pickle
import sqlite3
import threading
import time
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

from repro.errors import SweepStoreError
from repro.sweep.cache import point_fingerprint
from repro.telemetry.log import get_logger
from repro.version import __version__

#: Filename of the store inside a ``--serve --journal`` directory.
STORE_FILENAME = "store.sqlite"

#: Bump when the schema changes shape; ``meta.schema_version`` gates it.
SCHEMA_VERSION = 2

#: Job lifecycle states (see ARCHITECTURE.md for the state machine).
JOB_SUBMITTED = "submitted"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_CANCELLED = "cancelled"
JOB_POISONED = "poisoned"
JOB_TERMINAL = frozenset({JOB_DONE, JOB_CANCELLED, JOB_POISONED})

#: Tables only (``IF NOT EXISTS``, so a v1 store's tables are left
#: untouched for the migration to alter). Indexes and views that
#: reference v2 columns live in :data:`_SCHEMA_DERIVED`, executed only
#: *after* the version check/migration guaranteed those columns exist.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS jobs (
    grid     TEXT PRIMARY KEY,
    name     TEXT NOT NULL,
    tenant   TEXT NOT NULL DEFAULT '',
    n_points INTEGER NOT NULL,
    state    TEXT NOT NULL,
    version  TEXT NOT NULL DEFAULT '',
    created  REAL NOT NULL,
    updated  REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS points (
    grid        TEXT NOT NULL,
    idx         INTEGER NOT NULL,
    state       TEXT NOT NULL DEFAULT 'queued',
    worker      TEXT,
    spec        BLOB,
    payload     BLOB,
    failures    TEXT,
    updated     REAL NOT NULL,
    fingerprint TEXT,
    PRIMARY KEY (grid, idx)
);
CREATE INDEX IF NOT EXISTS points_by_state ON points (grid, state);
CREATE TABLE IF NOT EXISTS events (
    seq    INTEGER PRIMARY KEY AUTOINCREMENT,
    grid   TEXT NOT NULL,
    idx    INTEGER,
    event  TEXT NOT NULL,
    worker TEXT,
    time   REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS events_by_grid ON events (grid, seq);
CREATE TABLE IF NOT EXISTS tombstones (
    grid        TEXT PRIMARY KEY,
    name        TEXT NOT NULL,
    tenant      TEXT NOT NULL DEFAULT '',
    n_points    INTEGER NOT NULL,
    state       TEXT NOT NULL,
    version     TEXT NOT NULL DEFAULT '',
    created     REAL NOT NULL,
    collected   REAL NOT NULL,
    points_done INTEGER NOT NULL DEFAULT 0,
    reason      TEXT NOT NULL DEFAULT ''
);
"""

#: Indexes over v2 columns; applied after migration so they never
#: reference a column a v1 store does not have yet. No code read the
#: ``usage_daily`` view or wrote the ``history`` table older stores
#: carry, so opening a store drops both.
_SCHEMA_DERIVED = """
CREATE INDEX IF NOT EXISTS points_by_fingerprint ON points (fingerprint);
DROP VIEW IF EXISTS usage_daily;
DROP TABLE IF EXISTS history;
"""

#: Longest an audit row nobody waits on (:meth:`SweepStore.record_event`)
#: sits in the store's open transaction before the ticker commits it on
#: its own: bounds both the write lock other processes see and the tail
#: of lease/reclaim/requeue rows a SIGKILL can drop.
AUDIT_FLUSH_SECONDS = 0.05

_log = get_logger("sweep.store")


def _migrate_v1_to_v2(conn: sqlite3.Connection) -> None:
    """In-place v1 -> v2 migration; runs on the opening thread, once.

    Adds the ``points.fingerprint`` column (the ``tombstones`` table and
    the derived index come from the shared schema scripts) and backfills point fingerprints from the
    pickled specs. Every step is guarded on the store's current shape,
    so a crash mid-migration re-enters cleanly on the next open; the
    version row flips last. ``points.payload`` is never read or
    written — migrated stores replay byte-identical results.
    """
    point_cols = {row[1] for row in conn.execute("PRAGMA table_info(points)")}
    if "fingerprint" not in point_cols:
        conn.execute("ALTER TABLE points ADD COLUMN fingerprint TEXT")
    rows = conn.execute(
        "SELECT grid, idx, spec FROM points"
        " WHERE spec IS NOT NULL AND fingerprint IS NULL"
    ).fetchall()
    for row in rows:
        fp = _fingerprint_spec(row["spec"])
        if fp is not None:
            conn.execute(
                "UPDATE points SET fingerprint = ? WHERE grid = ? AND idx = ?",
                (fp, row["grid"], row["idx"]),
            )
    conn.execute(
        "UPDATE meta SET value = ? WHERE key = 'schema_version'",
        (str(SCHEMA_VERSION),),
    )


def _fingerprint_spec(spec: Optional[bytes]) -> Optional[str]:
    """Version-independent fingerprint of a pickled spec, None if it
    cannot be recovered (unimportable function, stale pickle)."""
    if spec is None:
        return None
    try:
        point = pickle.loads(spec)
        return point_fingerprint(point.func_path, dict(point.kwargs))
    except Exception:
        return None


def _done_payloads(conn: sqlite3.Connection, grid: str) -> dict[int, bytes]:
    rows = conn.execute(
        "SELECT idx, payload FROM points WHERE grid = ? AND state = 'done'",
        (grid,),
    ).fetchall()
    return {int(r["idx"]): r["payload"] for r in rows if r["payload"] is not None}


def _poisoned(conn: sqlite3.Connection, grid: str) -> dict[int, list[dict]]:
    """idx -> recorded failures for every poisoned point of ``grid``."""
    out: dict[int, list[dict]] = {}
    for row in conn.execute(
        "SELECT idx, failures FROM points WHERE grid = ? AND state = 'poisoned'",
        (grid,),
    ):
        try:
            out[int(row["idx"])] = json.loads(row["failures"] or "[]")
        except ValueError:
            out[int(row["idx"])] = []
    return out


def live_bytes(conn: sqlite3.Connection) -> int:
    """Bytes of live data in the store file behind ``conn``.

    ``(page_count - freelist_count) * page_size``: unlike the raw file
    size, this *shrinks* when GC deletes rows (SQLite frees pages to the
    freelist without truncating the file), so a tenant's store-bytes
    quota headroom recovers after ``collect_job`` even though
    ``stat().st_size`` never moves.
    """
    page_size, page_count, freelist = (
        int(conn.execute(f"PRAGMA {name}").fetchone()[0])
        for name in ("page_size", "page_count", "freelist_count")
    )
    return max(0, page_count - freelist) * page_size


class SweepStore:
    """One SQLite file, one locked connection, many tenants' jobs."""

    def __init__(
        self,
        path: str | Path,
        wall: Callable[[], float] = time.time,
        _crash_op: Optional[int] = None,
        _crash_mode: str = "after_commit",
    ) -> None:
        """Open (creating and/or recovering) the store at ``path``.

        ``_crash_op``/``_crash_mode`` are crash-test hooks: the calling
        thread ``os._exit``\\ s the whole process before or after the
        commit of the Nth *mutating* call. They exist so the recovery
        property tests can kill a real writer at every fsync boundary;
        production code never sets them.
        """
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.wall = wall
        self._crash_op = _crash_op
        self._crash_mode = _crash_mode
        self._mutations = 0
        try:
            self._conn = self._open_connection()
        except Exception as exc:
            raise SweepStoreError(f"cannot open sweep store {self.path}: {exc}") from exc
        self._lock = threading.Lock()
        self._open = True
        # Commit-by time of the open transaction holding unacknowledged
        # audit rows; None while nothing is pending.
        self._deadline: Optional[float] = None
        self._armed = threading.Event()  # a pending window opened, or close
        self._stop = threading.Event()
        self._ticker = threading.Thread(
            target=self._tick, name=f"sweep-store-{self.path.name}", daemon=True
        )
        self._ticker.start()

    # -- connection -----------------------------------------------------------
    def _tick(self) -> None:
        """Keep the idle deadline: commit audit rows nobody waits on once
        :data:`AUDIT_FLUSH_SECONDS` have passed since the first of them.

        Sleeps until :meth:`record_event` opens a pending window, then
        until that window's deadline, and takes the store lock only to
        commit a window still pending and due. Exits on :meth:`close`.
        """
        while not self._stop.is_set():
            self._armed.wait()
            self._armed.clear()  # before the read: a later window re-arms
            deadline = self._deadline
            if deadline is None or self._stop.wait(deadline - time.monotonic()):
                continue
            with self._lock:  # close() leaves no deadline behind
                if self._deadline is not None and self._deadline <= time.monotonic():
                    self._commit_audit()

    def _commit_audit(self) -> None:
        """Commit audit rows nobody waits on (idle deadline, close)."""
        self._deadline = None
        try:
            self._conn.commit()
        except sqlite3.Error as exc:
            _log.error("store.audit.failed", store=str(self.path), error=str(exc))
            try:
                self._conn.rollback()
            except sqlite3.Error:
                pass

    def _open_connection(self) -> sqlite3.Connection:
        conn = sqlite3.connect(str(self.path), check_same_thread=False)
        conn.row_factory = sqlite3.Row
        # WAL + FULL: committed transactions survive power loss, and the
        # implicit open already rolled back any hot journal / replayed
        # the WAL (SQLite's own torn-write recovery).
        try:
            conn.execute("PRAGMA journal_mode=WAL")
        except sqlite3.Error:
            pass  # e.g. network filesystems; rollback journal still recovers
        conn.execute("PRAGMA synchronous=FULL")
        check = conn.execute("PRAGMA quick_check").fetchone()[0]
        if check != "ok":
            conn.close()
            raise SweepStoreError(f"integrity check failed: {check}")
        conn.executescript(_SCHEMA)
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is None:
            conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
        else:
            found = int(row[0])
            if found > SCHEMA_VERSION:
                conn.close()
                raise SweepStoreError(
                    f"store schema v{found} is newer than this code (v{SCHEMA_VERSION})"
                )
            if found < SCHEMA_VERSION:
                _migrate_v1_to_v2(conn)
        conn.executescript(_SCHEMA_DERIVED)
        conn.commit()
        return conn

    def _check_open(self) -> sqlite3.Connection:
        """The connection, for a caller holding the lock; raises once closed."""
        if not self._open:
            raise SweepStoreError(f"sweep store {self.path} is closed")
        return self._conn

    def _crash(self, mode: str) -> None:
        if (
            self._crash_op is not None
            and self._mutations >= self._crash_op
            and self._crash_mode == mode
        ):
            os._exit(86)  # crash-test hook: die at this fsync boundary

    def _call(self, fn: Callable[[sqlite3.Connection], Any], mutate: bool = False) -> Any:
        """Run ``fn(conn)`` on the calling thread under the store lock and
        return its result; a mutation commits (fsync included) first."""
        with self._lock:
            conn = self._check_open()
            pending = self._deadline is not None
            try:
                if mutate and pending:
                    # A failing mutation must undo itself only, not the
                    # audit rows waiting in the same transaction.
                    conn.execute("SAVEPOINT mutation")
                value = fn(conn)
                if mutate:
                    self._mutations += 1
                    self._crash("before_commit")
                    conn.commit()
                    self._deadline = None
                    self._crash("after_commit")
                return value
            except BaseException as exc:
                try:
                    if not pending:
                        conn.rollback()
                    elif mutate:
                        conn.execute("ROLLBACK TO mutation")
                        conn.execute("RELEASE mutation")
                except sqlite3.Error:
                    pass
                if isinstance(exc, sqlite3.Error):
                    raise SweepStoreError(f"sweep store {self.path}: {exc}") from exc
                raise

    def flush(self) -> None:
        """Barrier: every row recorded before this call is committed when
        it returns. Readers on their own connection (the
        :class:`~repro.sweep.dist.query.ReaderPool`) call it before
        reading ``events``; it counts as a waited mutation."""
        self._call(lambda conn: None, mutate=True)

    def close(self) -> None:
        """Commit pending audit rows, close the connection, stop the ticker."""
        with self._lock:
            if not self._open:
                return
            self._open = False
            self._commit_audit()
            self._conn.close()
        self._stop.set()
        self._armed.set()
        self._ticker.join()

    @property
    def is_open(self) -> bool:
        """Whether the store is open (accepts writes)."""
        return self._open

    def used_bytes(self) -> int:
        """Bytes of live data in the store file (admission accounting);
        see :func:`live_bytes`."""
        return self._call(live_bytes)

    def __enter__(self) -> "SweepStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- jobs ---------------------------------------------------------------
    def submit_job(
        self,
        grid: str,
        name: str,
        points: Sequence[tuple],
        tenant: str = "",
        version: str = __version__,
    ) -> bool:
        """Create a job and its point rows; False if it already exists.

        Idempotent by grid signature: resubmitting the same grid (same
        content, same code version — the signature embeds both) is a
        no-op that leaves every recorded result in place, so a tenant
        retrying a SUBMIT across a service restart can never fork a job.
        A **tombstoned** grid (garbage-collected after finishing — see
        :meth:`collect_job`) also answers False: the job's bulk rows are
        gone, but re-submission still short-circuits instead of
        re-running work the retention policy already deemed disposable.

        ``points`` rows are ``(idx, spec)`` or ``(idx, spec,
        fingerprint)``; when the fingerprint is omitted it is recovered
        from the pickled spec (best effort — an unpicklable or None spec
        leaves it NULL, exactly like the v1->v2 backfill).
        """
        now = self.wall()
        work = []
        for item in points:
            idx, spec = item[0], item[1]
            fp = item[2] if len(item) > 2 else _fingerprint_spec(spec)
            work.append((grid, idx, spec, fp, now))

        def op(conn: sqlite3.Connection) -> bool:
            exists = conn.execute(
                "SELECT 1 FROM jobs WHERE grid = ?", (grid,)
            ).fetchone()
            if exists:
                return False
            tombstoned = conn.execute(
                "SELECT 1 FROM tombstones WHERE grid = ?", (grid,)
            ).fetchone()
            if tombstoned:
                return False
            conn.execute(
                "INSERT INTO jobs (grid, name, tenant, n_points, state, version,"
                " created, updated) VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
                (grid, name, tenant, len(points), JOB_SUBMITTED, version, now, now),
            )
            conn.executemany(
                "INSERT INTO points (grid, idx, state, spec, fingerprint, updated)"
                " VALUES (?, ?, 'queued', ?, ?, ?)",
                [(g, idx, spec, fp, t) for g, idx, spec, fp, t in work],
            )
            conn.execute(
                "INSERT INTO events (grid, idx, event, worker, time)"
                " VALUES (?, NULL, 'submit', ?, ?)",
                (grid, tenant, now),
            )
            return True

        return bool(self._call(op, mutate=True))

    def set_job_state(self, grid: str, state: str) -> None:
        now = self.wall()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE jobs SET state = ?, updated = ? WHERE grid = ?",
                (state, now, grid),
            )
            conn.execute(
                "INSERT INTO events (grid, idx, event, worker, time)"
                " VALUES (?, NULL, ?, NULL, ?)",
                (grid, f"state:{state}", now),
            )

        self._call(op, mutate=True)

    def job(self, grid: str) -> Optional[dict]:
        def op(conn: sqlite3.Connection):
            row = conn.execute("SELECT * FROM jobs WHERE grid = ?", (grid,)).fetchone()
            return dict(row) if row is not None else None

        return self._call(op)

    def jobs(self, name: Optional[str] = None) -> list[dict]:
        """All jobs (optionally filtered by name), newest first."""

        def op(conn: sqlite3.Connection):
            if name is None:
                rows = conn.execute(
                    "SELECT * FROM jobs ORDER BY created DESC"
                ).fetchall()
            else:
                rows = conn.execute(
                    "SELECT * FROM jobs WHERE name = ? ORDER BY created DESC",
                    (name,),
                ).fetchall()
            return [dict(r) for r in rows]

        return self._call(op)

    def resumable_jobs(self) -> list[dict]:
        """Non-terminal jobs, oldest first (the restart set)."""

        def op(conn: sqlite3.Connection):
            rows = conn.execute(
                "SELECT * FROM jobs WHERE state IN (?, ?) ORDER BY created",
                (JOB_SUBMITTED, JOB_RUNNING),
            ).fetchall()
            return [dict(row) for row in rows]

        return self._call(op)

    # -- points -------------------------------------------------------------
    def record_done(
        self, grid: str, idx: int, payload: bytes, worker: Optional[str] = None
    ) -> bool:
        """Durably persist one completed point; False if already done.

        The commit (and its fsync) happens before this returns — the
        service only acknowledges the worker afterwards, so an
        acknowledged result is never lost to a crash.
        """
        now = self.wall()

        def op(conn: sqlite3.Connection) -> bool:
            cursor = conn.execute(
                "UPDATE points SET state = 'done', payload = ?, worker = ?,"
                " failures = NULL, updated = ? WHERE grid = ? AND idx = ?"
                " AND state != 'done'",
                (payload, worker, now, grid, idx),
            )
            if cursor.rowcount == 0:
                return False
            conn.execute(
                "INSERT INTO events (grid, idx, event, worker, time)"
                " VALUES (?, ?, 'done', ?, ?)",
                (grid, idx, worker, now),
            )
            return True

        return bool(self._call(op, mutate=True))

    def record_poisoned(self, grid: str, idx: int, failures: list[dict]) -> None:
        now = self.wall()

        def op(conn: sqlite3.Connection) -> None:
            conn.execute(
                "UPDATE points SET state = 'poisoned', failures = ?, updated = ?"
                " WHERE grid = ? AND idx = ? AND state != 'done'",
                (json.dumps(failures, sort_keys=True), now, grid, idx),
            )
            conn.execute(
                "INSERT INTO events (grid, idx, event, worker, time)"
                " VALUES (?, ?, 'poisoned', NULL, ?)",
                (grid, idx, now),
            )

        self._call(op, mutate=True)

    def record_event(
        self, grid: str, idx: Optional[int], event: str, worker: Optional[str] = None
    ) -> None:
        """Audit-trail entry (lease/reclaim/requeue/restore...).

        Returns without waiting: the row is inserted in call order but
        committed with the next waited mutation, :meth:`flush`,
        :meth:`close`, or :data:`AUDIT_FLUSH_SECONDS` later — whichever
        comes first. Reads through the store see it at once; a crash can
        drop it.
        """
        now = self.wall()
        with self._lock:
            conn = self._check_open()
            try:
                conn.execute(
                    "INSERT INTO events (grid, idx, event, worker, time)"
                    " VALUES (?, ?, ?, ?, ?)",
                    (grid, idx, event, worker, now),
                )
            except sqlite3.Error as exc:
                _log.error("store.audit.failed", store=str(self.path), error=str(exc))
                return
            if self._deadline is None:
                self._deadline = time.monotonic() + AUDIT_FLUSH_SECONDS
                self._armed.set()

    def done_payloads(self, grid: str) -> dict[int, bytes]:
        """idx -> wire payload for every completed point of ``grid``."""
        return self._call(lambda conn: _done_payloads(conn, grid))

    def job_results(
        self, grid: str
    ) -> Optional[tuple[str, dict[int, bytes], dict[int, list[dict]]]]:
        """``(state, done payloads, poisoned failures)`` of one job in one
        read; None for a grid the store does not hold."""

        def op(conn: sqlite3.Connection):
            row = conn.execute("SELECT state FROM jobs WHERE grid = ?", (grid,)).fetchone()
            if row is None:
                return None
            return row["state"], _done_payloads(conn, grid), _poisoned(conn, grid)

        return self._call(op)

    def job_status(self, grid: str) -> Optional[dict]:
        """One job's STATUS document as its rows record it, or None.

        A point with no outcome counts as queued (no lease outlives the
        service that granted it), and ``reclaims``/``requeues`` count the
        grid's ``events`` rows, so the document reads the same in every
        session that opens this store.
        """

        def op(conn: sqlite3.Connection):
            row = conn.execute(
                "SELECT name, tenant, n_points, state FROM jobs WHERE grid = ?",
                (grid,),
            ).fetchone()
            if row is None:
                return None
            counts = {"queued": 0, "leased": 0, "done": 0, "poisoned": 0}
            counts.update(conn.execute(
                "SELECT state, COUNT(*) FROM points WHERE grid = ? GROUP BY state",
                (grid,),
            ).fetchall())
            events = dict(conn.execute(
                "SELECT event, COUNT(*) FROM events WHERE grid = ?"
                " AND event IN ('reclaim', 'requeue') GROUP BY event",
                (grid,),
            ).fetchall())
            return {
                "grid": grid,
                **dict(row),
                "remaining": row["n_points"] - counts["done"] - counts["poisoned"],
                "counts": counts,
                "reclaims": events.get("reclaim", 0),
                "requeues": events.get("requeue", 0),
                "poisoned_points": sorted(_poisoned(conn, grid)),
            }

        return self._call(op)

    def load_specs(self, grid: str) -> list[tuple[int, Optional[bytes]]]:
        """(idx, pickled SweepPoint) for every point row of ``grid``."""

        def op(conn: sqlite3.Connection):
            rows = conn.execute(
                "SELECT idx, spec FROM points WHERE grid = ? ORDER BY idx",
                (grid,),
            ).fetchall()
            return [(int(r["idx"]), r["spec"]) for r in rows]

        return self._call(op)

    # -- retention / GC -----------------------------------------------------
    def collect_job(
        self, grid: str, reason: str = "gc", lease_grace: float = 300.0
    ) -> dict:
        """Garbage-collect one **terminal** job; returns what happened.

        Runs as one mutation under the store lock (commit + fsync
        before returning, like every other mutation): the job's ``points`` /
        ``events`` / ``jobs`` rows are deleted and one ``tombstones``
        row is written in their place, so idempotent re-submission of
        the same grid still short-circuits (:meth:`submit_job`) and the
        job's name/tenant/outcome stay auditable.

        Refusals (``{"collected": False, "refused": <why>}``, nothing
        deleted):

        * ``"unknown"`` — no such job;
        * ``"already-collected"`` — a tombstone exists (idempotent);
        * ``"not-terminal"`` — the job is submitted/running; GC only
          ever eats jobs whose lifecycle has ended;
        * ``"active-lease"`` — the job is terminal but some point's most
          recent event is a ``lease`` younger than ``lease_grace``
          seconds: a worker may still be computing it (e.g. a CANCEL
          revoked the job mid-flight), and collecting now would turn its
          imminent DONE into a write against a vanished job. Once the
          grace window passes the lease has long expired and collection
          proceeds.
        """
        now = self.wall()

        def op(conn: sqlite3.Connection) -> dict:
            row = conn.execute(
                "SELECT * FROM jobs WHERE grid = ?", (grid,)
            ).fetchone()
            if row is None:
                tombstoned = conn.execute(
                    "SELECT 1 FROM tombstones WHERE grid = ?", (grid,)
                ).fetchone()
                return {
                    "grid": grid,
                    "collected": False,
                    "refused": "already-collected" if tombstoned else "unknown",
                }
            if row["state"] not in JOB_TERMINAL:
                return {"grid": grid, "collected": False, "refused": "not-terminal"}
            dangling = conn.execute(
                "SELECT 1 FROM events e JOIN ("
                "  SELECT idx, MAX(seq) AS seq FROM events"
                "  WHERE grid = ? AND idx IS NOT NULL AND event IN"
                "  ('lease', 'done', 'reclaim', 'requeue', 'poisoned')"
                "  GROUP BY idx"
                ") last ON e.seq = last.seq"
                " WHERE e.event = 'lease' AND e.time > ? LIMIT 1",
                (grid, now - float(lease_grace)),
            ).fetchone()
            if dangling is not None:
                return {"grid": grid, "collected": False, "refused": "active-lease"}
            points_done = conn.execute(
                "SELECT COUNT(*) FROM points WHERE grid = ? AND state = 'done'",
                (grid,),
            ).fetchone()[0]
            conn.execute(
                "INSERT OR REPLACE INTO tombstones (grid, name, tenant, n_points,"
                " state, version, created, collected, points_done, reason)"
                " VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
                (
                    grid,
                    row["name"],
                    row["tenant"],
                    row["n_points"],
                    row["state"],
                    row["version"],
                    row["created"],
                    now,
                    int(points_done),
                    str(reason),
                ),
            )
            conn.execute("DELETE FROM points WHERE grid = ?", (grid,))
            conn.execute("DELETE FROM events WHERE grid = ?", (grid,))
            conn.execute("DELETE FROM jobs WHERE grid = ?", (grid,))
            return {
                "grid": grid,
                "collected": True,
                "state": row["state"],
                "name": row["name"],
                "tenant": row["tenant"],
                "points_done": int(points_done),
            }

        return dict(self._call(op, mutate=True))

    def tombstone(self, grid: str) -> Optional[dict]:
        """The tombstone row of a collected job, or None."""

        def op(conn: sqlite3.Connection):
            row = conn.execute(
                "SELECT * FROM tombstones WHERE grid = ?", (grid,)
            ).fetchone()
            return dict(row) if row is not None else None

        return self._call(op)

    def tombstones(self) -> list[dict]:
        """Every tombstone row, most recently collected first."""

        def op(conn: sqlite3.Connection):
            rows = conn.execute(
                "SELECT * FROM tombstones ORDER BY collected DESC"
            ).fetchall()
            return [dict(r) for r in rows]

        return self._call(op)

    # -- telemetry ----------------------------------------------------------
    def last_seq(self) -> int:
        """The highest ``events.seq`` written so far (0 for an empty store)."""
        return int(
            self._call(
                lambda conn: conn.execute(
                    "SELECT COALESCE(MAX(seq), 0) FROM events"
                ).fetchone()[0]
            )
        )

    def events(self, grid: str, limit: int = 1000) -> list[dict]:
        def op(conn: sqlite3.Connection):
            rows = conn.execute(
                "SELECT seq, grid, idx, event, worker, time FROM events"
                " WHERE grid = ? ORDER BY seq DESC LIMIT ?",
                (grid, int(limit)),
            ).fetchall()
            return [dict(r) for r in reversed(rows)]

        return self._call(op)


__all__ = [
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_POISONED",
    "JOB_RUNNING",
    "JOB_SUBMITTED",
    "JOB_TERMINAL",
    "SCHEMA_VERSION",
    "STORE_FILENAME",
    "SweepStore",
    "schema_version",
]


def schema_version(path: str | Path) -> Optional[int]:
    """Peek a store file's ``schema_version`` without opening/migrating it.

    Read-only (URI ``mode=ro``), so it never creates, recovers, or
    migrates anything — the backup/ops tooling uses it to answer "what
    would opening this do?" before committing to it. None when the file
    is missing, not SQLite, or has no version row.
    """
    try:
        conn = sqlite3.connect(f"file:{Path(path)}?mode=ro", uri=True, timeout=5.0)
    except sqlite3.Error:
        return None
    try:
        row = conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        return int(row[0]) if row is not None else None
    except (sqlite3.Error, ValueError):
        return None
    finally:
        conn.close()
