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

Names resolve on first use (see :mod:`repro`): ``repro sweep
--service`` loads the control plane (service, store, leases, protocol,
admission, queries) and never the worker, the ``--watch`` console or
the staging data path.

See ``ARCHITECTURE.md`` for the lease/job state machines and failure
matrix.
"""

import importlib

#: Exported name -> the submodule that defines it. ``watch`` the
#: function is not here: the package attribute of that name is the
#: ``repro.sweep.dist.watch`` module once anything imports it.
_EXPORTS = {
    "AdmissionController": ".admission",
    "Assignment": ".protocol",
    "EwmaRate": ".fleetmetrics",
    "FailureRecord": ".protocol",
    "GridInfo": ".protocol",
    "JOB_CANCELLED": ".store",
    "JOB_DONE": ".store",
    "JOB_POISONED": ".store",
    "JOB_RUNNING": ".store",
    "JOB_SUBMITTED": ".store",
    "JOB_TERMINAL": ".store",
    "LeaseTable": ".lease",
    "PointRecord": ".lease",
    "PointState": ".lease",
    "ServiceClient": ".service",
    "SweepService": ".service",
    "SweepStore": ".store",
    "TenantQuota": ".admission",
    "WorkerAgent": ".worker",
    "WorkerOptions": ".worker",
    "WorkerReport": ".worker",
    "grid_signature": ".protocol",
    "parse_hostport": ".protocol",
    "prometheus_exposition": ".fleetmetrics",
    "render_status": ".watch",
    "run_service_process": ".service",
    "run_worker_process": ".worker",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
