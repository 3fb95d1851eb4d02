"""SweepService: a durable multi-tenant grid server + its client.

The one sweep control plane: long-lived middleware (the "heavy traffic
from many users" pattern of the coupled AI-simulation workflows) where
tenants ``SUBMIT`` named grids over the same RESP substrate workers
speak, the service leases points from *all* active jobs fair-share, and
every completed point is committed to an SQLite store
(:class:`~repro.sweep.dist.store.SweepStore`) **before** its worker is
acknowledged. ``repro sweep --serve`` embeds the same class for one
grid: the engine submits its job in-process and
:meth:`SweepService.serve_forever` returns once that job is terminal.
The consequences:

* **SIGKILL-proof** — a service killed mid-multi-tenant-workload and
  restarted on the same store reloads every non-terminal job (point
  specs are persisted at submission), preloads the done points, and
  drains the remainder; acknowledged results are byte-identical across
  the crash because RESULTS replays the exact wire payloads recorded.
* **Idempotent submission** — jobs are keyed by grid content signature
  (:func:`~repro.sweep.dist.protocol.grid_signature`), so a tenant
  retrying SUBMIT across a service restart (or a duplicate SUBMIT from
  a confused script) lands on the existing job instead of forking it.
* **Fair-share leasing** — CLAIM rotates through active jobs round-robin
  so one tenant's thousand-point grid cannot starve another's ten-point
  grid; within a job the :class:`~repro.sweep.dist.lease.LeaseTable`
  rules are unchanged (time-bounded leases, work stealing, poison
  quarantine).
* **Tenant isolation** — CANCEL of grid A flips only A's job: its
  leases stop renewing (``:0``) and its in-flight DONEs are answered
  ``+STALE``; grid B's leases, results, and lifecycle are untouched.

* **Overload protection** (protocol v6) — SUBMIT passes admission
  control (per-tenant quotas via
  :class:`~repro.sweep.dist.admission.TenantQuota`) and may be refused
  with a typed ``-BUSY`` reply carrying a seeded-jittered
  ``retry_after_s``; the RESP substrate is bounded (connection cap,
  idle/write deadlines, a dispatch queue that sheds reads but never
  DONE acks); ``HEALTH`` reports readiness off the lock-free fast
  path; and under queue or store-latency pressure the service declares
  *brownout* — new SUBMITs refused, CLAIM/DONE still served to drain.

Workers see one command vocabulary (HELLO advertises the
:data:`~repro.sweep.dist.protocol.MULTI_GRID` sentinel), so
``repro sweep --connect`` joins a standalone or an embedded service
alike.

A lease transition is recorded once, as a store ``events`` row, and
lands in memory at one hook (:meth:`SweepService._on_transition`),
which keeps the per-worker and per-job tallies. Fleet observability is
passive — the result stream is bit-identical with every layer on:
per-worker EWMA rates feed ``STATUS``/``METRICS``, a flight recorder
rings the last protocol events, and the fleet trace is derived from the
store's ``events`` at write time — each lease's lifetime a wall-clock
span on the ``coordinator`` track (one lane per worker) beside
steal/quarantine/replay instants — merged with the worker-shipped
``SPANS``, which are kept (under per-worker tracks named from the HELLO
``host:pid`` identity) only when a ``fleet_path`` says a trace will be
written.

The job lifecycle is ``SUBMITTED -> RUNNING -> {DONE, CANCELLED,
POISONED}`` (see ARCHITECTURE.md for the full state machine). Only live
jobs are held in memory: a job leaves :attr:`SweepService.jobs` when it
becomes terminal, and from then on every request about it (STATUS,
RESULTS, CANCEL, SUBMIT, a late DONE) is answered from its store rows,
the same way in this session and after a restart.
"""

from __future__ import annotations

import contextlib
import json
import pickle
import signal
import sys
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Optional, Sequence

import numpy as np

from repro.errors import (
    BackendUnavailableError,
    HelloRefusedError,
    ServiceBusyError,
    SweepError,
    SweepStoreError,
    TransportError,
)
from repro.sweep.dist.admission import (
    DRAINING,
    AdmissionController,
    TenantQuota,
)
from repro.sweep.dist.fleetmetrics import EwmaRate, prometheus_exposition
from repro.sweep.dist.lease import LeaseTable, PointRecord, PointState
from repro.sweep.dist.protocol import (
    CANCELLED,
    DRAINED,
    MULTI_GRID,
    STALE,
    TERMINAL,
    Assignment,
    FailureRecord,
    GridInfo,
    dump_busy,
    dump_results_reply,
    dump_submission,
    grid_signature_of,
    load_result,
    load_results_reply,
    load_spans,
    load_submission,
    parse_busy,
    parse_hostport,
)
from repro.sweep.cache import point_identity
from repro.sweep.dist.query import (
    ReaderPool,
    RetentionPolicy,
    divergences,
    fleet_tracer,
    query_fingerprint,
    run_gc,
    session_events,
    usage,
)
from repro.sweep.dist.store import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_POISONED,
    JOB_RUNNING,
    JOB_SUBMITTED,
    JOB_TERMINAL,
    SweepStore,
    live_bytes,
)
from repro.sweep.point import SweepPoint, derive_seed
from repro.telemetry.chrome_trace import write_chrome_trace
from repro.telemetry.flight import FlightRecorder, maybe_dump
from repro.telemetry.log import get_logger
from repro.transport import resp
from repro.transport.redis_backend import MiniRedisConnection
from repro.transport.server import RespTcpServer
from repro.version import __version__

_log = get_logger("sweep.service")

#: Per-transition observer: ``(grid, event, record)`` for every lease
#: transition of every live job (``lease``, ``renew``, ``reclaim``,
#: ``done``, ``requeue``, ``poison``), called under the dispatch lock.
TransitionFn = Callable[[str, str, PointRecord], None]

#: Lease transitions the aggregate STATUS counts for the session.
_SESSION_COUNTERS = {"done": "executed", "reclaim": "reclaims", "requeue": "requeues"}


@dataclass
class ServiceJob:
    """One live job: its lease table, point specs and options."""

    grid: str
    name: str
    tenant: str
    points: dict[int, SweepPoint]
    table: LeaseTable
    state: str = JOB_SUBMITTED
    capture: bool = True

    @property
    def trace_id(self) -> str:
        return self.grid[:16]

    @property
    def n_points(self) -> int:
        return len(self.table.records)


class SweepService(RespTcpServer):
    """Multi-tenant, store-backed grid server on the RESP substrate."""

    #: Read-only commands the bounded dispatch queue may shed under
    #: pressure. Durability acks (DONE/FAIL), leasing (CLAIM/RENEW),
    #: lifecycle (SUBMIT/CANCEL/GC), and liveness (PING/HELLO) are never
    #: shed; SUBMIT overload is handled by admission control instead.
    SHEDDABLE = frozenset(
        {"STATUS", "METRICS", "QUERY", "USAGE", "JOBS", "SPANS", "RESULTS"}
    )

    def __init__(
        self,
        store: SweepStore | str | Path,
        host: str = "127.0.0.1",
        port: int = 0,
        lease_seconds: float = 5.0,
        poison_workers: int = 2,
        poison_failures: int = 4,
        clock: Callable[[], float] = time.monotonic,
        wall: Callable[[], float] = time.time,
        flight_path: Optional[str | Path] = None,
        max_frame_bytes: Optional[int] = None,
        quota: Optional[TenantQuota] = None,
        max_connections: Optional[int] = 256,
        idle_timeout: Optional[float] = 300.0,
        write_timeout: Optional[float] = 30.0,
        dispatch_queue_limit: Optional[int] = 128,
        brownout_backlog: Optional[int] = None,
        brownout_store_latency_s: Optional[float] = 1.0,
        busy_retry_s: float = 1.0,
        seed: int = 0,
        fleet_path: Optional[str | Path] = None,
        observer: Optional[TransitionFn] = None,
    ) -> None:
        if brownout_backlog is None and dispatch_queue_limit is not None:
            # Brown out before the queue is hard-full, so shedding reads
            # and refusing submissions kick in together, not after the
            # queue already drops everything sheddable.
            brownout_backlog = max(4, (3 * dispatch_queue_limit) // 4)
        super().__init__(
            host=host,
            port=port,
            name="sweep-service",
            max_frame_bytes=max_frame_bytes,
            max_connections=max_connections,
            idle_timeout=idle_timeout,
            write_timeout=write_timeout,
            dispatch_queue_limit=dispatch_queue_limit,
        )
        self.admission = AdmissionController(
            quota=quota,
            brownout_backlog=brownout_backlog,
            brownout_store_latency_s=brownout_store_latency_s,
            busy_retry_s=busy_retry_s,
            seed=seed,
            clock=clock,
        )
        if isinstance(store, (str, Path)):
            store = SweepStore(store, wall=wall)
            self._owns_store = True
        else:
            self._owns_store = False
        self.store = store
        self.lease_seconds = lease_seconds
        self.poison_workers = poison_workers
        self.poison_failures = poison_failures
        self.clock = clock
        self.wall = wall
        #: Live (submitted or running) jobs in fair-share order: CLAIM
        #: starts at the head and moves each job it tries to the back.
        self.jobs: OrderedDict[str, ServiceJob] = OrderedDict()
        #: Done and poisoned points of the jobs retired this session.
        self._retired = {"done": 0, "poisoned": 0}
        #: Session counters: executed, replayed, reclaims, requeues.
        self._totals = dict.fromkeys(
            ("executed", "replayed", "reclaims", "requeues"), 0
        )
        self._stop_serving = False
        self.flight = FlightRecorder(component="service", clock=wall)
        self.flight_path = Path(flight_path) if flight_path is not None else None
        #: Where :meth:`serve_forever` leaves the merged fleet trace.
        self.fleet_path = Path(fleet_path) if fleet_path is not None else None
        self.observer = observer
        self._rates: dict[str, EwmaRate] = {}
        self.workers: dict[str, dict] = {}
        #: (track, span) of worker SPANS, kept only for a fleet trace.
        self._worker_spans: list[tuple[str, dict]] = []
        self.stale_grid = 0
        self.duplicates = 0
        #: Read-only connections beside the store's locked connection:
        #: QUERY/USAGE (and GC's planning pass) answer from here, so an
        #: expensive query never queues between a worker's DONE and its
        #: fsync.
        self.reader = ReaderPool(self.store.path)
        #: The store's last ``events.seq`` before this session: the fleet
        #: trace draws the rows after it.
        self._session_seq = self.store.last_seq()
        self._restore()
        _log.info(
            "service.open",
            address=f"{self.host}:{self.port}",
            jobs=len(self.jobs),
            store=str(self.store.path),
        )

    # -- restart recovery ---------------------------------------------------
    def _restore(self) -> None:
        """Reload every non-terminal job from the store (crash restart)."""
        for row in self.store.resumable_jobs():
            grid = row["grid"]
            try:
                points: dict[int, SweepPoint] = {
                    idx: pickle.loads(blob) for idx, blob in self.store.load_specs(grid)
                }
            except Exception as exc:  # a NULL spec lands here too
                _log.error("service.restore.unreadable", grid=grid[:16], error=str(exc))
                continue
            job = self._activate(
                grid, row["name"], row.get("tenant", ""), points, state=row["state"]
            )
            replayed = 0
            for idx in self.store.done_payloads(grid):
                if idx in job.table.records:
                    job.table.preload_done(idx)
                    replayed += 1
            self._totals["replayed"] += replayed
            self.store.record_event(grid, None, "restore")
            self.flight.record("restore", grid=grid[:16], replayed=replayed)
            _log.info(
                "service.restore",
                grid=grid[:16],
                n_points=len(points),
                replayed=replayed,
            )
            self._maybe_finalize(job)

    def _activate(
        self,
        grid: str,
        name: str,
        tenant: str,
        points: dict[int, SweepPoint],
        state: str = JOB_SUBMITTED,
        capture: bool = True,
    ) -> ServiceJob:
        job = ServiceJob(
            grid=grid,
            name=name,
            tenant=tenant,
            points=dict(points),
            table=LeaseTable(
                points.keys(),
                lease_seconds=self.lease_seconds,
                poison_workers=self.poison_workers,
                poison_failures=self.poison_failures,
                clock=self.clock,
                observer=lambda event, record, g=grid: self._on_transition(
                    g, event, record
                ),
            ),
            state=state,
            capture=capture,
        )
        self.jobs[grid] = job
        return job

    # -- lease-table plumbing ------------------------------------------------
    def _on_transition(self, grid: str, event: str, record: PointRecord) -> None:
        """The one place a lease transition lands: its store ``events`` row
        (``done``/``poisoned`` are written by the handler's own commit),
        the per-worker tallies and session counters, the flight ring, the
        observer."""
        worker = record.worker
        if event in ("lease", "reclaim", "requeue"):
            self.store.record_event(grid, record.index, event, worker)
        if event in _SESSION_COUNTERS:
            self._totals[_SESSION_COUNTERS[event]] += 1
        if event == "lease":
            self._tally(worker)["claimed"] += 1
            self._rates.setdefault(worker, EwmaRate()).mark_active(self.clock())
        elif event == "done":
            self._tally(worker)["completed"] += 1
            self._rates.setdefault(worker, EwmaRate()).observe(self.clock())
        elif event in ("requeue", "poison"):
            # fail() clears the holder; the failure names who reported it.
            self._tally(record.failures[-1].worker)["failed"] += 1
        self.flight.record(event, grid=grid[:16], index=record.index, worker=worker)
        if event == "reclaim":
            _log.warning("lease.reclaim", grid=grid[:16], index=record.index,
                         worker=worker)
        if self.observer is not None:
            self.observer(grid, event, record)

    def _tally(self, worker: str) -> dict:
        return self.workers.setdefault(
            worker, {"claimed": 0, "completed": 0, "failed": 0}
        )

    def _maybe_finalize(self, job: ServiceJob) -> None:
        """Move a drained job to its terminal state (immutable afterwards)."""
        if not job.table.done():
            return
        job.state = JOB_POISONED if job.table.poisoned() else JOB_DONE
        self.store.set_job_state(job.grid, job.state)
        self._retire(job)
        self.flight.record("job." + job.state, grid=job.grid[:16])
        _log.info(
            "job.terminal",
            grid=job.grid[:16],
            name=job.name,
            state=job.state,
            n_points=job.n_points,
        )

    def _retire(self, job: ServiceJob) -> None:
        """Drop a finished or cancelled job from memory; its store rows are
        its only record from now on. Its done and poisoned points stay in
        the aggregate through the retired tally."""
        del self.jobs[job.grid]
        counts = job.table.counts()
        for state in self._retired:
            self._retired[state] += counts[state]

    def _mark_running(self, job: ServiceJob) -> None:
        if job.state == JOB_SUBMITTED:
            job.state = JOB_RUNNING
            self.store.set_job_state(job.grid, JOB_RUNNING)

    # -- tenant lifecycle ----------------------------------------------------
    def submit(
        self,
        name: str,
        points: Sequence[tuple[int, SweepPoint]],
        tenant: str = "",
        capture: bool = True,
    ) -> dict:
        """Register one named grid; idempotent by content signature."""
        work = [(int(i), p) for i, p in points]
        if not work:
            raise SweepError("a submission needs at least one point")
        # One rendering per point gives both its key and its fingerprint.
        identities = [point_identity(p.func_path, p.kwargs) for _, p in work]
        grid = grid_signature_of(
            (idx, key) for (idx, _), (key, _) in zip(work, identities)
        )
        row = self.store.job(grid)
        if row is not None:
            # Live, finished, or restored-unresumable: the store row says.
            return {"grid": grid, "created": False, "state": row["state"],
                    "n_points": row["n_points"]}
        tomb = self.store.tombstone(grid)
        if tomb is not None:
            # Collected by GC: the tombstone preserves idempotency, so a
            # retried SUBMIT short-circuits instead of re-running the grid.
            return {"grid": grid, "created": False, "state": "collected",
                    "n_points": tomb["n_points"]}
        # Admission control — only *new* work is gated; the idempotent
        # short-circuits above add no load and must stay refusal-free so
        # a tenant retrying across a refusal window converges.
        refusal = self._admission_check(tenant, len(work))
        if refusal is not None:
            _log.warning(
                "job.refused", tenant=tenant, name=name,
                reason=refusal["reason"], n_points=len(work),
            )
            self.flight.record(
                "submit.busy", tenant=tenant, reason=refusal["reason"]
            )
            raise ServiceBusyError(
                refusal["reason"], refusal.get("retry_after_s"), detail=refusal
            )
        specs = [
            (idx, pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL), fp)
            for (idx, point), (_, fp) in zip(work, identities)
        ]
        t0 = time.perf_counter()
        self.store.submit_job(grid, name=name, points=specs, tenant=tenant)
        self.admission.observe_store_write(time.perf_counter() - t0)
        job = self._activate(grid, name, tenant, dict(work), capture=capture)
        _log.info("job.submit", grid=grid[:16], name=name, tenant=tenant,
                  n_points=len(work))
        self.flight.record("submit", grid=grid[:16], name=name, n_points=len(work))
        return {"grid": grid, "created": True, "state": job.state,
                "n_points": len(work)}

    def cancel(self, grid: str) -> str:
        """Cancel one job; its leases are revoked, other jobs untouched."""
        job = self.jobs.get(grid)
        if job is not None:
            job.state = JOB_CANCELLED
            self.store.set_job_state(grid, JOB_CANCELLED)
            self._retire(job)
            self.flight.record("cancel", grid=grid[:16], name=job.name)
            _log.info("job.cancel", grid=grid[:16], name=job.name)
            return CANCELLED
        row = self.store.job(grid)
        if row is None:
            raise TransportError(f"unknown grid {grid[:16]}")
        if row["state"] in (JOB_DONE, JOB_POISONED):
            return TERMINAL
        if row["state"] != JOB_CANCELLED:
            self.store.set_job_state(grid, JOB_CANCELLED)
        return CANCELLED

    # -- admission control ---------------------------------------------------
    def _tenant_load(self) -> dict[str, list[int]]:
        """tenant -> [live jobs, outstanding points], over the live jobs."""
        load: dict[str, list[int]] = {}
        for job in self.jobs.values():
            entry = load.setdefault(job.tenant, [0, 0])
            entry[0] += 1
            entry[1] += job.table.remaining()
        return load

    def _admission_check(self, tenant: str, n_points: int) -> Optional[dict]:
        """None to admit this submission; a ``-BUSY`` document otherwise."""
        if self._stop_serving:
            return self.admission.refuse("draining", scale=4.0, tenant=tenant)
        self._evaluate_brownout()
        live_jobs, queued = self._tenant_load().get(tenant, (0, 0))
        store_bytes = None
        if self.admission.quota.max_store_bytes is not None:
            store_bytes = self.store.used_bytes()
        return self.admission.check_submit(
            tenant, live_jobs, queued, n_points, store_bytes
        )

    def _evaluate_brownout(self) -> None:
        """Advance the brownout machine; log+record transitions."""
        event = self.admission.evaluate(self.dispatch_backlog())
        if event == "enter":
            snap = self.admission.snapshot()
            _log.warning(
                "service.brownout.enter",
                cause=snap.get("brownout_cause"),
                backlog=self.dispatch_backlog(),
                store_latency_s=snap.get("store_write_latency_s"),
            )
            self.flight.record("brownout.enter", cause=snap.get("brownout_cause"))
        elif event == "exit":
            _log.info("service.brownout.exit")
            self.flight.record("brownout.exit")

    def _sheddable(self, name: str) -> bool:
        return name in self.SHEDDABLE

    def _busy_reply(self, name: str) -> bytes:
        doc = self.admission.refuse("dispatch-queue", command=name)
        return resp.encode_busy(dump_busy(**doc))

    # -- health --------------------------------------------------------------
    def _store_bytes_ro(self) -> Optional[int]:
        """Live store bytes via the reader pool (never waits on the store lock)."""
        try:
            with self.reader.connection() as conn:
                return live_bytes(conn)
        except Exception:
            return None

    def health(self, lock_timeout: float = 0.05) -> dict:
        """The readiness document behind the ``HEALTH`` wire command.

        Deliberately answerable *without* the dispatch lock: counters and
        queue depths are read lock-free, and the per-tenant quota section
        is filled in only if the lock frees up within ``lock_timeout`` —
        under exactly the overload HEALTH exists to report, the probe
        still answers (marked ``"degraded": true``) instead of queueing
        behind the backlog it is trying to measure.
        """
        if self._stop_serving:
            state = DRAINING
        else:
            state = self.admission.state
        connections = len(self._open_conns)
        store_bytes = self._store_bytes_ro()
        doc: dict[str, Any] = {
            "service": True,
            "state": state,
            "version": __version__,
            "store": {
                "path": str(self.store.path),
                "writable": self.store.is_open,
                "bytes": store_bytes,
                "write_latency_s": round(
                    self.admission.store_write_latency_s, 6
                ),
            },
            "reader_pool": {"live": not getattr(self.reader, "_closed", True)},
            "queues": {
                "dispatch_waiting": self.dispatch_backlog(),
                "dispatch_limit": self.dispatch_queue_limit,
                "shed_commands": self.shed_commands,
                "connections": connections,
                "max_connections": self.max_connections,
                "refused_connections": self.refused_connections,
                "local_connections": self.local_connections,
                "idle_disconnects": self.idle_disconnects,
                "stalled_disconnects": self.stalled_disconnects,
            },
            "admission": self.admission.snapshot(),
        }
        locked = self._exec_lock.acquire(timeout=lock_timeout)
        if not locked:
            doc["degraded"] = True
            return doc
        try:
            quota = self.admission.quota
            doc["tenants"] = {
                tenant: {
                    "live_jobs": live_jobs,
                    "queued_points": queued,
                    "headroom": quota.headroom(live_jobs, queued, store_bytes),
                }
                for tenant, (live_jobs, queued) in sorted(self._tenant_load().items())
            }
            doc["jobs"] = {"live": len(self.jobs)}
        finally:
            self._exec_lock.release()
        return doc

    def _dispatch_unlocked(self, name: str, args: list) -> Optional[bytes]:
        if name != "HEALTH":
            return None
        if len(args) not in (0,):
            raise TransportError("wrong number of arguments for 'HEALTH'")
        return resp.encode_bulk(
            json.dumps(self.health(), sort_keys=True).encode()
        )

    # -- command dispatch ----------------------------------------------------
    def _dispatch(self, name: str, args: list) -> bytes:
        if name == "PING":
            return resp.encode_simple("PONG")
        if name == "HELLO":
            self._need(args, 2, "HELLO")
            return self._handle_hello(_text(args[0]), _text(args[1]))
        if name == "CLAIM":
            self._need(args, 1, "CLAIM")
            return self._handle_claim(_text(args[0]))
        if name == "RENEW":
            self._need(args, 3, "RENEW")
            return self._handle_renew(_text(args[0]), _index(args[1]), _text(args[2]))
        if name == "DONE":
            self._need(args, 4, "DONE")
            return self._handle_done(
                _text(args[0]), _index(args[1]), _text(args[2]), bytes(args[3])
            )
        if name == "FAIL":
            self._need(args, 4, "FAIL")
            return self._handle_fail(
                _text(args[0]), _index(args[1]), _text(args[2]), _text(args[3])
            )
        if name == "SUBMIT":
            self._need(args, 1, "SUBMIT")
            return self._handle_submit(bytes(args[0]))
        if name == "CANCEL":
            self._need(args, 1, "CANCEL")
            return resp.encode_simple(self.cancel(_text(args[0])))
        if name == "RESULTS":
            self._need(args, 1, "RESULTS")
            return self._handle_results(_text(args[0]))
        if name == "JOBS":
            rows = [
                {k: v for k, v in row.items()}
                for row in self.store.jobs()
            ]
            return resp.encode_bulk(json.dumps(rows, sort_keys=True).encode())
        if name == "STATUS":
            if len(args) not in (0, 1):
                raise TransportError("wrong number of arguments for 'STATUS'")
            grid = _text(args[0]) if args else None
            return resp.encode_bulk(
                json.dumps(self.status(grid), sort_keys=True).encode()
            )
        if name == "METRICS":
            return resp.encode_bulk(prometheus_exposition(self.status()).encode())
        if name == "SPANS":
            self._need(args, 2, "SPANS")
            return self._handle_spans(_text(args[0]), _text(args[1]))
        if name == "QUERY":
            return self._handle_query(self._read_spec(args, "QUERY"))
        if name == "USAGE":
            return self._handle_usage(self._read_spec(args, "USAGE"))
        if name == "GC":
            return self._handle_gc(self._read_spec(args, "GC"))
        raise TransportError(f"unknown command '{name}'")

    # -- read commands (protocol v5) -----------------------------------------
    @staticmethod
    def _read_spec(args: list, command: str) -> dict:
        """The optional single-JSON-object argument of QUERY/USAGE/GC."""
        if len(args) not in (0, 1):
            raise TransportError(f"wrong number of arguments for '{command}'")
        if not args:
            return {}
        try:
            spec = json.loads(_text(args[0]) or "{}")
        except ValueError:
            raise TransportError(f"{command} spec must be JSON") from None
        if not isinstance(spec, dict):
            raise TransportError(f"{command} spec must be a JSON object")
        return spec

    def _handle_query(self, spec: dict) -> bytes:
        """Cross-job result lookup; reads only, answered from the pool."""
        rows = query_fingerprint(
            self.reader,
            fingerprint=spec.get("fingerprint"),
            name=spec.get("name"),
            tenant=spec.get("tenant"),
            limit=int(spec.get("limit", 1000)),
        )
        reply = {"rows": rows}
        if spec.get("divergences", True):
            reply["divergences"] = divergences(
                self.reader,
                fingerprint=spec.get("fingerprint"),
                name=spec.get("name"),
                tenant=spec.get("tenant"),
            )
        return resp.encode_bulk(json.dumps(reply, sort_keys=True).encode())

    def _handle_usage(self, spec: dict) -> bytes:
        self.store.flush()  # lease/requeue rows still riding the next commit
        report = usage(
            self.reader,
            tenant=spec.get("tenant"),
            since=spec.get("since"),
        )
        return resp.encode_bulk(json.dumps(report, sort_keys=True).encode())

    def _handle_gc(self, spec: dict) -> bytes:
        """Plan (always) and apply (unless dry_run) a retention pass.

        The apply path runs under the store lock like every other
        mutation. GC collects terminal jobs only, which the
        service no longer holds in memory.
        """
        policy = RetentionPolicy(
            max_age_seconds=spec.get("max_age_seconds"),
            keep_latest=spec.get("keep_latest"),
            tenant=spec.get("tenant"),
            name=spec.get("name"),
            lease_grace=float(spec.get("lease_grace", 300.0)),
        )
        dry_run = bool(spec.get("dry_run", True))
        self.store.flush()
        report = run_gc(
            self.store, policy, dry_run=dry_run, pool=self.reader,
            now=self.wall(),
        )
        for entry in report["collected"]:
            self.flight.record("gc.collect", grid=entry["grid"][:16])
        if not dry_run:
            _log.info(
                "gc.pass",
                planned=len(report["planned"]),
                collected=len(report["collected"]),
                refused=len(report["refused"]),
            )
        return resp.encode_bulk(json.dumps(report, sort_keys=True).encode())

    def _handle_hello(self, worker: str, caps_json: str) -> bytes:
        try:
            caps = json.loads(caps_json) if caps_json else {}
        except ValueError:
            raise TransportError("HELLO capabilities must be JSON") from None
        version = str(caps.get("version", ""))
        if version and version != __version__:
            raise TransportError(
                f"version mismatch: service {__version__}, worker {version}"
            )
        entry = self.workers.setdefault(
            worker, {"claimed": 0, "completed": 0, "failed": 0, "track": f"worker {worker}"}
        )
        host, pid = caps.get("host"), caps.get("pid")
        if host is not None and pid is not None:
            entry["track"] = f"worker {host}:{pid}"
        live = self.jobs.values()
        info = GridInfo(
            grid=MULTI_GRID,
            n_points=sum(j.n_points for j in live),
            lease_seconds=self.lease_seconds,
            version=__version__,
            remaining=sum(j.table.remaining() for j in live),
            extra={"service": True, "jobs": len(live)},
        )
        self.flight.record("hello", worker=worker, host=host, pid=pid)
        return resp.encode_bulk(json.dumps(info.as_dict(), sort_keys=True).encode())

    def _handle_claim(self, worker: str) -> bytes:
        # DRAINED only when there are no live jobs at all: a service with
        # an empty moment is not finished, so idle workers poll, not leave.
        if self._stop_serving or not self.jobs:
            return resp.encode_simple(DRAINED)
        # Fair share: try each live job once, starting at the head, and
        # move each tried job to the back so the *next* claim starts at
        # the next tenant.
        for _ in range(len(self.jobs)):
            job = next(iter(self.jobs.values()))
            self.jobs.move_to_end(job.grid)
            index = job.table.claim(worker)
            if index is None:
                continue
            self._mark_running(job)
            assignment = Assignment(
                index=index,
                point=job.points[index],
                lease_seconds=self.lease_seconds,
                capture=job.capture,
                grid=job.grid,
                trace_id=job.trace_id,
                span_id=f"{index}/{job.table.records[index].leases}",
            )
            return resp.encode_bulk(assignment.to_bytes())
        return resp.encode_bulk(None)

    def _handle_renew(self, worker: str, index: int, grid: str) -> bytes:
        job = self.jobs.get(grid)
        if job is None:
            return resp.encode_integer(0)
        return resp.encode_integer(int(job.table.renew(worker, index)))

    def _late_ack(self, grid: str) -> bytes:
        """DONE/FAIL for a grid that is not live, acknowledged so the
        worker moves on and recorded nowhere: ``DUPLICATE`` when the store
        says the job finished, ``STALE`` when it was cancelled or is
        unknown here (another service's work, a journal-era leftover)."""
        row = self.store.job(grid)
        if row is not None and row["state"] in (JOB_DONE, JOB_POISONED):
            self.duplicates += 1
            return resp.encode_simple("DUPLICATE")
        self.stale_grid += 1
        return resp.encode_simple(STALE)

    def _handle_done(self, worker: str, index: int, grid: str, blob: bytes) -> bytes:
        job = self.jobs.get(grid)
        if job is None:
            return self._late_ack(grid)
        record = job.table.records.get(index)
        if record is None:
            raise TransportError(f"unknown point index {index}")
        if record.state in (PointState.DONE, PointState.POISONED):
            self.duplicates += 1
            return resp.encode_simple("DUPLICATE")
        try:
            load_result(blob)  # validate before committing garbage
        except Exception as exc:
            raise TransportError(
                f"unreadable result for point {index}: {exc}"
            ) from None
        # Durability before acknowledgment: commit (fsync) to the store,
        # then ack — a +OK'd result survives a SIGKILL of this process.
        t0 = time.perf_counter()
        self.store.record_done(grid, index, blob, worker=worker)
        self.admission.observe_store_write(time.perf_counter() - t0)
        job.table.complete(worker, index)
        self._maybe_finalize(job)
        return resp.encode_simple("OK")

    def _handle_fail(self, worker: str, index: int, grid: str, info_json: str) -> bytes:
        job = self.jobs.get(grid)
        if job is None:
            return self._late_ack(grid)
        record = job.table.records.get(index)
        if record is None:
            raise TransportError(f"unknown point index {index}")
        if record.state in (PointState.DONE, PointState.POISONED):
            self.duplicates += 1
            return resp.encode_simple("DUPLICATE")
        try:
            info = json.loads(info_json) if info_json else {}
        except ValueError:
            raise TransportError("FAIL payload must be JSON") from None
        failure = FailureRecord.from_dict({**info, "worker": worker})
        if job.table.fail(worker, index, failure) is PointState.POISONED:
            failures = [f.as_dict() for f in job.table.records[index].failures]
            self.store.record_poisoned(grid, index, failures)
            self._maybe_finalize(job)
            return resp.encode_simple("POISONED")
        return resp.encode_simple("REQUEUED")

    def _handle_submit(self, blob: bytes) -> bytes:
        payload = load_submission(blob)
        try:
            reply = self.submit(
                payload["name"],
                payload["points"],
                tenant=payload.get("tenant", ""),
                capture=bool(payload.get("capture", True)),
            )
        except ServiceBusyError as exc:
            # Typed refusal, not -ERR: the request was valid, the service
            # is shedding load. Clients honor the hint and retry.
            doc = dict(exc.detail)
            doc.setdefault("reason", exc.reason)
            if exc.retry_after_s is not None:
                doc.setdefault("retry_after_s", exc.retry_after_s)
            return resp.encode_busy(dump_busy(**doc))
        return resp.encode_bulk(json.dumps(reply, sort_keys=True).encode())

    def results(self, grid: str) -> tuple[str, dict[int, bytes], dict[int, list]]:
        """``(job state, done wire payloads, poisoned failures)`` from the
        store in one read — what RESULTS ships, and what the embedding
        engine reads."""
        found = self.store.job_results(grid)
        if found is None:
            raise TransportError(f"unknown grid {grid[:16]}")
        return found

    def _handle_results(self, grid: str) -> bytes:
        return resp.encode_bulk(dump_results_reply(*self.results(grid)))

    def _handle_spans(self, worker: str, spans_json: str) -> bytes:
        spans = load_spans(spans_json)
        if self.fleet_path is not None:
            track = self.workers.get(worker, {}).get("track") or f"worker {worker}"
            self._worker_spans.extend((track, span) for span in spans)
        return resp.encode_integer(len(spans))

    # -- status --------------------------------------------------------------
    def status(self, grid: Optional[str] = None) -> dict:
        """One job's status, or the aggregate (watch-compatible) document.

        A job's document comes from its store rows, live or not; a live
        job's lease table adds the leased count. The aggregate is the
        live jobs plus the retired tally and the session counters.
        """
        if grid:
            doc = self.store.job_status(grid)
            if doc is None:
                if self.store.tombstone(grid) is not None:
                    raise TransportError(f"grid {grid[:16]} collected by gc")
                raise TransportError(f"unknown grid {grid[:16]}")
            job = self.jobs.get(grid)
            if job is not None:
                doc["counts"] = job.table.counts()
            return doc
        live = list(self.jobs.values())
        counts = {"queued": 0, "leased": 0, **self._retired}
        poisoned_points: list[int] = []
        now = self.clock()
        lease_age: dict[str, float] = {}
        for job in live:
            job_counts = job.table.counts()
            for state, n in job_counts.items():
                counts[state] += n
            poisoned_points.extend(r.index for r in job.table.poisoned())
            if not job_counts["leased"]:
                continue
            for record in job.table.records.values():
                if record.state is PointState.LEASED and record.worker is not None:
                    age = max(
                        0.0, self.lease_seconds - (record.deadline - now)
                    )
                    lease_age[record.worker] = max(
                        lease_age.get(record.worker, 0.0), age
                    )
        rates = {
            worker: {
                "points_per_second": rate.current(now),
                "lease_age_seconds": lease_age.get(worker),
            }
            for worker, rate in self._rates.items()
        }
        return {
            "grid": MULTI_GRID,
            "service": True,
            "n_points": sum(counts.values()),
            "remaining": counts["queued"] + counts["leased"],
            "counts": counts,
            **self._totals,
            "poisoned_points": sorted(poisoned_points),
            "workers": {
                w: {k: v for k, v in entry.items() if k != "capabilities"}
                for w, entry in self.workers.items()
            },
            "rates": rates,
            "jobs": {
                job.grid: {
                    "grid": job.grid,
                    "name": job.name,
                    "tenant": job.tenant,
                    "state": job.state,
                    "n_points": job.n_points,
                    "remaining": job.table.remaining(),
                    "counts": job.table.counts(),
                    "poisoned_points": [r.index for r in job.table.poisoned()],
                }
                for job in live
            },
        }

    # -- serving --------------------------------------------------------------
    def request_stop(self) -> None:
        self._stop_serving = True

    def serve_forever(self, poll: float = 0.1, until: Optional[str] = None) -> None:
        """Run until :meth:`request_stop` (SIGTERM).

        Draining all jobs does *not* end the loop — a service waits for
        the next tenant — unless ``until`` names the one grid this
        session exists for (the engine's embedded ``--serve`` service):
        then the loop also ends once that job is not live, because it
        became terminal here or an earlier session finished it. The
        periodic tick reclaims expired leases across every live job so
        work stealing happens even when no worker is polling.
        """
        if not self.is_running:
            self.start()
        try:
            while not self._stop_serving:
                with self._exec_lock:
                    for job in list(self.jobs.values()):
                        job.table.reclaim_expired()
                        self._maybe_finalize(job)
                    self._evaluate_brownout()
                    if until is not None and until not in self.jobs:
                        break
                time.sleep(poll)
        except BaseException:
            maybe_dump(self.flight, self.flight_path, "crash")
            raise
        finally:
            if self.fleet_path is not None:
                # Even a poisoned or stopped session leaves a trace — that
                # is when the timeline matters most.
                try:
                    self.write_fleet_trace(self.fleet_path)
                except (OSError, SweepStoreError) as exc:
                    # Observability must not mask the run.
                    print(f"fleet trace not written: {exc}", file=sys.stderr)
        served = self.store.job(until) if until is not None else None
        maybe_dump(
            self.flight,
            self.flight_path,
            "poison" if served is not None and served["state"] == JOB_POISONED
            else "drain" if self._stop_serving
            else "completed",
        )
        _log.info("service.closed", jobs=len(self.jobs))

    def write_fleet_trace(self, path: str | Path) -> int:
        """Write this session's fleet trace as one Chrome trace.

        The coordinator track is derived from the ``events`` rows the
        session wrote (:func:`~repro.sweep.dist.query.fleet_tracer`),
        read after a flush; any lease still open (a stopped session
        leaves unfinished points) is closed at "now" so the trace stays
        structurally valid. Returns the number of trace events written.
        """
        with self._exec_lock:
            self.store.flush()
            rows = session_events(self.reader, self._session_seq)
            tracer = fleet_tracer(
                rows, self._session_seq, self.wall(), self._worker_spans
            )
        return write_chrome_trace(path, tracer=tracer)

    def stop(self) -> None:
        self.request_stop()
        super().stop()
        self.reader.close()
        if self._owns_store:
            self.store.close()


class ServiceClient:
    """The one client of a sweep service: tenants, workers and the
    ``--watch`` console all reach a service through it.

    It keeps one connection, reopens it after a loss, and replays the
    owner's ``hello`` (the ``HELLO`` arguments, for workers) on every
    connection it opens. Each command is retried within
    ``reconnect_budget`` seconds; a budget of 0 makes every command one
    attempt (a connection that had gone stale since the last command is
    still reopened once, at once). Waits between attempts are seeded
    backoff, or the server's ``retry_after_s`` hint after a ``-BUSY``;
    they never outlast the budget and end at once when ``stop`` is set.
    Every command the tenant API issues is idempotent (SUBMIT by content
    signature, the rest read-only or terminal-state-absorbing), so
    retrying one that may have reached the service is safe.

    Failures split four ways: connection loss (retried; raised as
    :class:`~repro.errors.BackendUnavailableError` once the budget is
    spent), ``-BUSY`` (retried; raised as
    :class:`~repro.errors.ServiceBusyError` carrying the refusal),
    ``-ERR`` (the request itself is wrong — raised at once as
    :class:`~repro.transport.resp.ServerReplyError`), and an ``-ERR``
    to the replayed HELLO (raised at once as
    :class:`~repro.errors.HelloRefusedError`). One lock serialises
    commands, so threads may share a client but never interleave on
    its socket.
    """

    def __init__(
        self,
        address: str,
        op_timeout: float = 30.0,
        reconnect_budget: float = 30.0,
        seed: int = 0,
        hello: Optional[Sequence[str]] = None,
        stop: Optional[threading.Event] = None,
    ) -> None:
        self.host, self.port = parse_hostport(address)
        self.address = address
        self.op_timeout = op_timeout
        self.reconnect_budget = reconnect_budget
        self.hello = tuple(hello) if hello else None
        self.stop = stop if stop is not None else threading.Event()
        self._rng = np.random.default_rng(derive_seed(seed, "service-client", address))
        #: -BUSY refusals absorbed or raised across this client's lifetime.
        self.busy_refusals = 0
        #: The most recent -BUSY document seen, for operator forensics.
        self.last_busy: Optional[dict] = None
        #: Connections opened after a command had lost one or failed to.
        self.reconnects = 0
        self._conn: Optional[MiniRedisConnection] = None
        self._lock = threading.Lock()

    def _open(self) -> MiniRedisConnection:
        conn = MiniRedisConnection(self.host, self.port, timeout=self.op_timeout)
        if self.hello is not None:
            try:
                conn.command("HELLO", *self.hello)
            except resp.ServerReplyError as exc:
                conn.close()
                if parse_busy(str(exc)) is not None:
                    raise  # shed at accept: paced like any -BUSY
                raise HelloRefusedError(f"{self.address} refused HELLO: {exc}") from None
            except BaseException:
                conn.close()
                raise
        return conn

    def close(self) -> None:
        conn, self._conn = self._conn, None
        if conn is not None:
            conn.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def command(self, *parts) -> Any:
        """Send one command; retry within the budget; return its reply."""
        with self._lock:
            deadline = time.monotonic() + self.reconnect_budget
            attempt = 0
            lost = False
            while True:
                kept = self._conn is not None
                try:
                    if self._conn is None:
                        self._conn = self._open()
                        self.reconnects += lost
                    return self._conn.command(*parts)
                except BackendUnavailableError as exc:
                    self.close()
                    lost = True
                    if kept:
                        continue  # idle-cut or restarted peer: reopen at once
                    error: Exception = exc
                    hint = None
                except resp.ServerReplyError as exc:
                    busy = parse_busy(str(exc))
                    if busy is None:
                        raise  # -ERR: the request is wrong; retry cannot help
                    self.busy_refusals += 1
                    self.last_busy = busy
                    hint = busy.get("retry_after_s")
                    hint = None if hint is None else max(0.0, float(hint))
                    error = ServiceBusyError(
                        str(busy.get("reason", "busy")), hint, detail=busy
                    )
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.stop.is_set():
                    raise error from None
                if hint is None:
                    attempt += 1
                    hint = min(0.1 * (2 ** min(attempt, 5)), 2.0)
                    hint *= 0.5 + float(self._rng.random())
                if self.stop.wait(min(hint, remaining)):
                    raise error from None

    def ping(self) -> bool:
        return str(self.command("PING")) == "PONG"

    def health(self) -> dict:
        """The service's readiness document (see the HEALTH command)."""
        reply = self.command("HEALTH")
        doc = json.loads(reply) if reply else None
        if not isinstance(doc, dict):
            raise SweepError(f"malformed HEALTH reply from {self.address}")
        return doc

    def submit(
        self,
        name: str,
        points: Sequence[tuple[int, SweepPoint]],
        tenant: str = "",
        capture: bool = True,
    ) -> dict:
        blob = dump_submission(name, points, tenant=tenant, capture=capture)
        reply = self.command("SUBMIT", blob)
        return json.loads(reply) if reply else {}

    def status(self, grid: Optional[str] = None) -> dict:
        reply = (
            self.command("STATUS", grid) if grid else self.command("STATUS")
        )
        status = json.loads(reply) if reply else None
        if not isinstance(status, dict):
            raise SweepError(f"malformed STATUS reply from {self.address}")
        return status

    def cancel(self, grid: str) -> str:
        return str(self.command("CANCEL", grid))

    def jobs(self) -> list[dict]:
        reply = self.command("JOBS")
        rows = json.loads(reply) if reply else []
        return rows if isinstance(rows, list) else []

    def query(
        self,
        fingerprint: Optional[str] = None,
        name: Optional[str] = None,
        tenant: Optional[str] = None,
        limit: int = 1000,
        include_divergences: bool = True,
    ) -> dict:
        """Cross-job result lookup by point fingerprint (read-only)."""
        spec = {
            "fingerprint": fingerprint, "name": name, "tenant": tenant,
            "limit": limit, "divergences": include_divergences,
        }
        reply = self.command("QUERY", json.dumps(spec, sort_keys=True))
        return json.loads(reply) if reply else {"rows": []}

    def usage(
        self, tenant: Optional[str] = None, since: Optional[float] = None
    ) -> dict:
        """Per-tenant, per-day accounting report (read-only)."""
        spec = {"tenant": tenant, "since": since}
        reply = self.command("USAGE", json.dumps(spec, sort_keys=True))
        return json.loads(reply) if reply else {"tenants": []}

    def gc(
        self,
        max_age_seconds: Optional[float] = None,
        keep_latest: Optional[int] = None,
        tenant: Optional[str] = None,
        name: Optional[str] = None,
        lease_grace: float = 300.0,
        dry_run: bool = True,
    ) -> dict:
        """Run a retention pass; ``dry_run=True`` (default) only plans."""
        spec = {
            "max_age_seconds": max_age_seconds, "keep_latest": keep_latest,
            "tenant": tenant, "name": name, "lease_grace": lease_grace,
            "dry_run": dry_run,
        }
        reply = self.command("GC", json.dumps(spec, sort_keys=True))
        return json.loads(reply) if reply else {}

    def results(self, grid: str, decode: bool = True) -> dict:
        """The job's state + results: ``{"state", "results", "poisoned"}``.

        With ``decode`` the per-point wire payloads are unpickled into
        ``{index: (value, snapshot)}``; without it the raw payload bytes
        come back verbatim (byte-identity checks).
        """
        reply = self.command("RESULTS", grid)
        payload = load_results_reply(bytes(reply))
        out = {"state": payload["state"], "poisoned": payload.get("poisoned", {})}
        if decode:
            out["results"] = {
                idx: load_result(blob) for idx, blob in payload["payloads"].items()
            }
        else:
            out["results"] = dict(payload["payloads"])
        return out

    def wait(
        self,
        grid: str,
        poll: float = 0.25,
        timeout: Optional[float] = None,
        decode: bool = True,
    ) -> dict:
        """Block until the job reaches a terminal state; returns results."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            status = self.status(grid)
            if status.get("state") in JOB_TERMINAL:
                return self.results(grid, decode=decode)
            if deadline is not None and time.monotonic() >= deadline:
                raise SweepError(
                    f"job {grid[:16]} still {status.get('state')!r} after "
                    f"{timeout:g}s"
                )
            time.sleep(poll)


@contextlib.contextmanager
def sigterm_calls(callback: Callable[[], None]):
    """Route SIGTERM to ``callback`` for the block (main thread only)."""
    if not (
        hasattr(signal, "SIGTERM")
        and threading.current_thread() is threading.main_thread()
    ):
        yield
        return
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: callback())
    try:
        yield
    finally:
        # signal.signal returns None for a handler installed from C,
        # which it would refuse to take back.
        signal.signal(
            signal.SIGTERM, signal.SIG_DFL if previous is None else previous
        )


def run_service_process(
    address: str,
    store_path: str | Path,
    lease_seconds: float = 5.0,
    flight_path: Optional[str] = None,
    quota: Optional[TenantQuota] = None,
    max_connections: Optional[int] = 256,
    seed: int = 0,
) -> int:
    """Entry point for ``repro sweep --service`` (standalone service).

    Installs a SIGTERM handler for graceful drain; SIGKILL is the crash
    path the store exists for. Returns 0 on clean shutdown, 1 when the
    store is unusable.
    """
    host, port = parse_hostport(address)
    try:
        service = SweepService(
            store_path,
            host=host,
            port=port,
            lease_seconds=lease_seconds,
            flight_path=flight_path,
            quota=quota,
            max_connections=max_connections,
            seed=seed,
        )
    except SweepStoreError as exc:
        print(f"sweep service: {exc}", file=sys.stderr)
        return 1
    print(
        f"sweep service on {service.host}:{service.port} "
        f"(store {service.store.path}, {len(service.jobs)} jobs restored)",
        file=sys.stderr,
    )
    try:
        with sigterm_calls(service.request_stop):
            service.serve_forever()
    finally:
        service.stop()
    return 0


def _text(arg: Any) -> str:
    if isinstance(arg, (bytes, bytearray)):
        return bytes(arg).decode("utf-8", "replace")
    return str(arg)


def _index(arg: Any) -> int:
    try:
        return int(_text(arg))
    except ValueError:
        raise TransportError(f"bad point index {arg!r}") from None


__all__ = [
    "ServiceClient",
    "ServiceJob",
    "SweepService",
    "TenantQuota",
    "run_service_process",
    "sigterm_calls",
]
