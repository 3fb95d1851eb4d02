"""Parallel sweep execution: the fan-out layer under every experiment.

Every figure/table driver in :mod:`repro.experiments` is a grid of
independent, deterministic DES runs — (backend x message size x node
count x seed x fault plan). This package turns that grid into a
first-class object and executes it as fast as the hardware allows:

* :class:`~repro.sweep.point.SweepPoint` — one declarative grid cell: a
  module-level function plus canonical keyword arguments (the paper's
  backend/size/scale/seed/fault-plan axes), optionally carrying
  telemetry;
* :class:`~repro.sweep.engine.SweepEngine` — executes a point list
  serially or across a ``concurrent.futures.ProcessPoolExecutor`` with
  per-point timeout/retry (reusing the :mod:`repro.errors` retryable
  classification) and live progress callbacks. A process keeps one
  pool: the first ``parallel > 1`` run starts it and later runs reuse
  it, one pooled run at a time; a run that raises shuts it down (queued
  points cancelled, running ones awaited) and the next run starts a
  fresh one. Workers are forked when the pool starts, so a point must
  not depend on parent state changed after the first pooled run;
* :class:`~repro.sweep.cache.ResultCache` — a content-addressed on-disk
  store keyed by a stable hash of (function, arguments, package
  version), so re-running a sweep only computes changed points;
* :mod:`repro.sweep.dist` — fault-tolerant *distributed* execution: a
  TCP service leases the grid to workers under time-bounded leases with
  heartbeats, work stealing, poison-point quarantine, and an SQLite
  store that commits every result before acknowledging it
  (``SweepOptions(serve="HOST:PORT")``);
* telemetry merge-back — worker processes record into their own
  :class:`~repro.telemetry.hub.Telemetry` hub, and the engine folds each
  worker's spans/metrics/instants into the parent hub in deterministic
  point order (:mod:`repro.telemetry.snapshot`).

The serial no-cache path is the exact code path the drivers ran before
this layer existed, so a driver's ``run()`` output is bit-identical
between ``SweepOptions()`` (defaults) and ``--parallel N`` for a fixed
seed — a property the regression tests assert per driver.

Quick use::

    from repro.sweep import SweepEngine, SweepOptions, SweepPoint, grid

    points = [SweepPoint(func=measure, kwargs=kw, label=str(kw))
              for kw in grid(backend=["redis", "dragon"], nbytes=[1e6, 4e6])]
    values = SweepEngine(SweepOptions(parallel=4, cache_dir=".sweep")).run(points)

Names resolve on first use (see :mod:`repro`): importing
:mod:`repro.sweep.point` does not load the engine.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "CacheStats": ".cache",
    "ResultCache": ".cache",
    "SweepEngine": ".engine",
    "SweepOptions": ".engine",
    "SweepPoint": ".point",
    "SweepReport": ".engine",
    "derive_seed": ".point",
    "fingerprint": ".cache",
    "grid": ".point",
    "grid_fingerprint": ".cache",
    "point_fingerprint": ".cache",
    "point_key": ".cache",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
