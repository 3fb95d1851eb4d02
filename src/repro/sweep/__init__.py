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
  classification) and live progress callbacks;
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
"""

from repro.sweep.cache import (
    CacheStats,
    ResultCache,
    fingerprint,
    grid_fingerprint,
    point_fingerprint,
    point_key,
)
from repro.sweep.engine import SweepEngine, SweepOptions, SweepReport
from repro.sweep.point import SweepPoint, derive_seed, grid

__all__ = [
    "CacheStats",
    "ResultCache",
    "SweepEngine",
    "SweepOptions",
    "SweepPoint",
    "SweepReport",
    "derive_seed",
    "fingerprint",
    "grid",
    "grid_fingerprint",
    "point_fingerprint",
    "point_key",
]
