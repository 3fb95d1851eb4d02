"""Fault-tolerant distributed sweep: one service, workers, leases, a store.

A :class:`SweepService` serves point grids over TCP (the RESP substrate
shared with the mini-Redis backend); :class:`WorkerAgent`\\ s claim
points under time-bounded leases, renew them via heartbeats, and stream
results back. Expired leases are reclaimed and re-queued (work
stealing), points that fail on multiple distinct workers are quarantined
as poison, and every completed point is committed to an SQLite
:class:`SweepStore` before its worker is acknowledged, so a SIGKILLed
service restarts against the same database with every acknowledged
result intact.

The service runs two ways. Standalone (``repro sweep --service``) it is
a long-lived multi-tenant endpoint: many named grids at once, fair-share
leasing across tenants, driven with :class:`ServiceClient` (or ``repro
sweep --submit``). Embedded (``SweepOptions(serve=...)``, ``repro sweep
--serve``) the engine starts one in-process for a single grid and stops
it when that job is terminal.

See ``ARCHITECTURE.md`` for the lease/job state machines and failure
matrix.
"""

from repro.sweep.dist.admission import AdmissionController, TenantQuota
from repro.sweep.dist.fleetmetrics import EwmaRate, prometheus_exposition
from repro.sweep.dist.lease import LeaseTable, PointRecord, PointState
from repro.sweep.dist.protocol import (
    Assignment,
    FailureRecord,
    GridInfo,
    grid_signature,
    parse_hostport,
)
from repro.sweep.dist.service import (
    ServiceClient,
    SweepService,
    run_service_process,
)
from repro.sweep.dist.store import (
    JOB_CANCELLED,
    JOB_DONE,
    JOB_POISONED,
    JOB_RUNNING,
    JOB_SUBMITTED,
    JOB_TERMINAL,
    SweepStore,
)
from repro.sweep.dist.watch import render_status, watch
from repro.sweep.dist.worker import (
    WorkerAgent,
    WorkerOptions,
    WorkerReport,
    run_worker_process,
)

__all__ = [
    "AdmissionController",
    "Assignment",
    "EwmaRate",
    "FailureRecord",
    "GridInfo",
    "JOB_CANCELLED",
    "JOB_DONE",
    "JOB_POISONED",
    "JOB_RUNNING",
    "JOB_SUBMITTED",
    "JOB_TERMINAL",
    "LeaseTable",
    "PointRecord",
    "PointState",
    "ServiceClient",
    "SweepService",
    "SweepStore",
    "TenantQuota",
    "WorkerAgent",
    "WorkerOptions",
    "WorkerReport",
    "grid_signature",
    "parse_hostport",
    "prometheus_exposition",
    "render_status",
    "run_service_process",
    "run_worker_process",
    "watch",
]
