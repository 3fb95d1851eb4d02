"""The sweep engine: serial or process-parallel execution of point grids.

Execution contract (what the bit-identical regression tests rely on):

* **Determinism** — every point is an independent deterministic
  computation of its kwargs (the DES guarantees this for simulated
  runs), so values do not depend on worker count, completion order, or
  cache state. The engine returns values in *point order*, never
  completion order, and merges telemetry snapshots in point order too.
* **Serial fast path** — with default options (no parallelism, no
  cache) a point's function is called in-process with the parent
  telemetry hub, which is byte-for-byte the code path the experiment
  drivers used before this layer existed.
* **Worker path** — with ``parallel > 1`` (or a cache), each point runs
  with its own :class:`~repro.telemetry.hub.Telemetry` hub; the engine
  ships back a :class:`~repro.telemetry.snapshot.TelemetrySnapshot` and
  folds it into the parent hub, so one trace/metrics document still
  covers the whole sweep. A process keeps **one worker pool**: the first
  ``parallel > 1`` run starts it with ``parallel`` workers and later runs
  reuse it (a run asking for another size replaces it). Pooled runs take
  turns, so ``parallel=N`` never means more than N busy workers. A run
  that raises (a terminal point error, a broken pool, an interrupt)
  cancels its queued points, waits for the running ones and shuts the
  pool down; the next run starts a fresh one, so no work of a failed
  run reaches a later one. A worker lost while the pool sat idle is
  noticed at the next run's first submit, which starts a fresh pool. A
  forked child forgets its parent's pool; interpreter exit is left to
  the exit hook of :mod:`concurrent.futures`, and a multiprocessing
  child (which joins its children before that hook runs) shuts its
  pool down from a multiprocessing finalizer.
* **Fork snapshot** — workers are forked when the pool starts, so a
  point must not depend on parent-process state changed after the first
  pooled run (the one such global today, ``des.set_default_core``,
  gives identical results on either core).
* **Faults** — a point failure raising an exception whose class is
  marked ``retryable`` (see :mod:`repro.errors`) is re-attempted up to
  ``retries`` times; terminal failures surface as
  :class:`~repro.errors.SweepPointError` naming the grid cell. Per-point
  wall-clock ``timeout`` is enforced *inside* worker processes (via
  ``SIGALRM``), so a wedged point converts into a retryable
  :class:`~repro.errors.SweepTimeoutError` instead of hanging the sweep.
"""

from __future__ import annotations

import contextlib
import multiprocessing.util
import os
import signal
import tempfile
import threading
import time
import warnings
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

from repro.errors import (
    SweepError,
    SweepPointError,
    SweepPoisonedError,
    SweepTimeoutError,
)
from repro.sweep.cache import CacheStats, ResultCache, grid_fingerprint_of
from repro.sweep.point import SweepPoint, points_from_grid

#: Progress callback signature: (done_count, total, label, source) where
#: source is "cache", "run", "retry", "journal" (acknowledged by an
#: earlier serving session and replayed from its store), or "steal"
#: (lease reclaimed from a dead worker — informational, does not advance
#: the done count).
ProgressFn = Callable[[int, int, str, str], None]

_UNSET = object()


@dataclass
class SweepOptions:
    """How a sweep executes (not *what* it computes — that's the points).

    Defaults reproduce the historical serial driver behaviour exactly.
    """

    #: Worker processes; <= 1 means run in-process (serial).
    parallel: int = 1
    #: Result-cache directory; None disables caching.
    cache_dir: Optional[str | Path] = None
    #: Per-point wall-clock seconds before a worker aborts the attempt
    #: with a retryable SweepTimeoutError. None = unlimited. Enforced in
    #: worker processes only (the serial path cannot safely interrupt).
    timeout: Optional[float] = None
    #: Additional attempts granted to retryable point failures.
    retries: int = 1
    #: Live progress callback (see ProgressFn); None = silent.
    progress: Optional[ProgressFn] = None
    #: ``HOST:PORT`` to serve the grid on for distributed workers
    #: (mutually exclusive with ``parallel > 1``). Pending points are
    #: executed by remote :class:`~repro.sweep.dist.WorkerAgent`\\ s.
    serve: Optional[str] = None
    #: Directory of the serving sweep's durable store; a restarted sweep
    #: with the same directory resumes where it died. None = a temporary
    #: store removed when serving ends.
    journal_dir: Optional[str | Path] = None
    #: Distributed lease duration; a worker silent this long loses its
    #: point to the next claimer.
    lease_seconds: float = 5.0
    #: Quarantine a point after terminal failures on this many distinct
    #: workers ...
    poison_workers: int = 2
    #: ... or after this many terminal failures in total.
    poison_failures: int = 4
    #: Evict cache entries (oldest first) above this size after the run.
    cache_max_mb: Optional[float] = None
    #: Write the merged fleet Chrome trace (lease spans on the
    #: ``coordinator`` track + worker execution spans) here when the
    #: serving sweep ends — even a poisoned or stopped one. Requires
    #: ``serve``.
    fleet_trace: Optional[str | Path] = None
    #: Dump the serving side's flight-recorder ring (recent protocol
    #: events) here when serving ends or crashes. Requires ``serve``.
    flight_recorder: Optional[str | Path] = None
    #: ``HOST:PORT`` of a running durable sweep service: SUBMIT the grid
    #: as one named job and block until it drains, instead of executing
    #: locally or serving the grid from this process. Mutually exclusive
    #: with ``serve`` and ``parallel > 1``; the service's workers do the
    #: computing and its SQLite store keeps the results across restarts.
    submit: Optional[str] = None
    #: Tenant label attached to a submitted job (fair-share accounting
    #: on the service side). Only meaningful with ``submit``.
    tenant: str = ""
    #: Human-readable job name for ``submit``; defaults to the first
    #: point's label.
    job_name: Optional[str] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise SweepError(f"retries must be >= 0, got {self.retries}")
        if self.timeout is not None and self.timeout <= 0:
            raise SweepError(f"timeout must be positive, got {self.timeout}")
        if self.serve is not None and self.parallel > 1:
            raise SweepError(
                "serve and parallel are mutually exclusive: a serving sweep "
                "delegates execution to remote workers"
            )
        if self.submit is not None and self.serve is not None:
            raise SweepError(
                "submit and serve are mutually exclusive: submit hands the "
                "grid to an already-running sweep service"
            )
        if self.submit is not None and self.parallel > 1:
            raise SweepError(
                "submit and parallel are mutually exclusive: the service's "
                "workers do the computing"
            )
        if self.tenant and self.submit is None:
            raise SweepError("tenant only applies to a submitted sweep")
        if self.job_name is not None and self.submit is None:
            raise SweepError("job_name only applies to a submitted sweep")
        if self.journal_dir is not None and self.serve is None:
            raise SweepError("journal_dir only applies to a serving sweep")
        if self.fleet_trace is not None and self.serve is None:
            raise SweepError("fleet_trace only applies to a serving sweep")
        if self.flight_recorder is not None and self.serve is None:
            raise SweepError("flight_recorder only applies to a serving sweep")
        if self.lease_seconds <= 0:
            raise SweepError(f"lease_seconds must be positive, got {self.lease_seconds}")
        if min(self.poison_workers, self.poison_failures) < 1:
            raise SweepError("poison thresholds must be >= 1")
        if self.cache_max_mb is not None and self.cache_max_mb <= 0:
            raise SweepError(f"cache_max_mb must be positive, got {self.cache_max_mb}")


@dataclass
class SweepReport:
    """What one engine run produced, beyond the values themselves."""

    values: list[Any] = field(default_factory=list)
    n_points: int = 0
    computed: int = 0  # points actually executed (not cache- or store-served)
    retried: int = 0
    cache: Optional[CacheStats] = None
    # Distributed-run extras (zero on serial/pool runs):
    replayed: int = 0  # points an earlier serving session had acknowledged
    reclaims: int = 0  # leases stolen back from silent workers
    requeues: int = 0  # worker failures re-queued to other workers

    @property
    def from_cache(self) -> int:
        return self.n_points - self.computed - self.replayed


def _execute_point(point: SweepPoint, capture: bool):
    """Run one point; return (value, telemetry snapshot or None)."""
    hub = None
    if capture and point.telemetry:
        from repro.telemetry.hub import Telemetry

        hub = Telemetry()
    value = point.call(telemetry=hub)
    snapshot = hub.snapshot() if hub is not None else None
    return value, snapshot


@contextlib.contextmanager
def _point_alarm(label: str, timeout: Optional[float]):
    """Bound a block's wall-clock time with SIGALRM, safely.

    SIGALRM only delivers to the main thread, and naively arming an
    itimer clobbers whatever alarm the host application had pending. So
    this guard:

    * no-ops (with a :class:`RuntimeWarning`) off the main thread or on
      platforms without ``SIGALRM``/``setitimer`` — the point simply
      runs unbounded rather than the timer silently misfiring;
    * saves the previous handler *and* the previous timer's remaining
      time, and re-arms both on exit, crediting the time this block
      consumed (an outer alarm that would have fired during the block
      fires almost immediately after it).
    """
    if not timeout:
        yield
        return
    if not (hasattr(signal, "SIGALRM") and hasattr(signal, "setitimer")):
        warnings.warn(  # pragma: no cover - non-POSIX
            f"per-point timeout for {label!r} disabled: platform lacks SIGALRM",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return
    if threading.current_thread() is not threading.main_thread():
        warnings.warn(
            f"per-point timeout for {label!r} disabled: SIGALRM timers only "
            "fire on the main thread",
            RuntimeWarning,
            stacklevel=3,
        )
        yield
        return

    def _on_alarm(signum, frame):
        raise SweepTimeoutError(label, timeout)

    previous_handler = signal.signal(signal.SIGALRM, _on_alarm)
    prev_delay, prev_interval = signal.setitimer(signal.ITIMER_REAL, timeout)
    started = time.monotonic()
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous_handler)
        if prev_delay > 0.0:
            remaining = prev_delay - (time.monotonic() - started)
            # An outer timer that expired while ours was armed still owes
            # its application a signal: fire it as soon as possible.
            signal.setitimer(signal.ITIMER_REAL, max(remaining, 1e-6), prev_interval)


def _worker(point: SweepPoint, capture: bool, timeout: Optional[float]):
    """Process-pool / dist-worker entry: execution under an optional alarm."""
    with _point_alarm(point.label, timeout):
        return _execute_point(point, capture)


def _is_retryable(exc: BaseException) -> bool:
    return bool(getattr(exc, "retryable", False))


#: The process's one worker pool as ``(size, executor)``, started by the
#: first pooled run and reused by later ones; None until then and after a
#: run that raised. Guarded by ``_pool_lock``, which a pooled run holds
#: from its first submit to its last result.
_pool: Optional[tuple[int, ProcessPoolExecutor]] = None
_pool_lock = threading.Lock()


def _forget_pool() -> None:
    """In a forked child: the parent's pool and lock are not ours."""
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _pool_of(size: int) -> ProcessPoolExecutor:
    """The kept pool with ``size`` workers, started (or resized) on demand.

    The caller holds ``_pool_lock``.
    """
    global _pool
    if _pool is not None and _pool[0] != size:
        _pool[1].shutdown(wait=True)
        _pool = None
    if _pool is None:
        _pool = (size, ProcessPoolExecutor(max_workers=size))
        # A multiprocessing child joins its children before the exit hook
        # of concurrent.futures tells the workers to stop: shut the pool
        # down first, ahead of the queue finalizers (priority 10) it uses.
        multiprocessing.util.Finalize(None, _drop_pool, exitpriority=100)
    return _pool[1]


def _drop_pool() -> None:
    """Shut the kept pool down and forget it: queued points are cancelled,
    running ones waited for. Called under ``_pool_lock`` after a run that
    raised, and by a multiprocessing child's exit finalizer."""
    global _pool
    if _pool is not None:
        pool, _pool = _pool[1], None
        pool.shutdown(wait=True, cancel_futures=True)


class SweepEngine:
    """Executes :class:`SweepPoint` lists under one :class:`SweepOptions`."""

    def __init__(
        self,
        options: Optional[SweepOptions] = None,
        telemetry=None,
    ) -> None:
        self.options = options or SweepOptions()
        self.telemetry = telemetry
        #: The embedded SweepService while a distributed run is serving
        #: (tests use it to request a graceful stop).
        self._service = None

    # -- public API --------------------------------------------------------
    def run(self, points: Sequence[SweepPoint], telemetry=None) -> SweepReport:
        """Execute every point; values come back in point order.

        ``telemetry`` (or the engine's hub) receives every point's
        spans/instants/metrics — live on the serial no-cache path,
        merged from per-worker snapshots otherwise — plus engine-level
        ``sweep.*`` counters.
        """
        hub = telemetry if telemetry is not None else self.telemetry
        points = list(points)
        report = SweepReport(n_points=len(points))
        if not points:
            return report

        cache = (
            ResultCache(self.options.cache_dir) if self.options.cache_dir else None
        )
        values: list[Any] = [_UNSET] * len(points)
        snapshots: list[Any] = [None] * len(points)
        total = len(points)
        done = 0

        def emit(done_count: int, label: str, source: str) -> None:
            if self.options.progress is not None:
                self.options.progress(done_count, total, label, source)

        # 1. Serve whatever the cache already has.
        pending: list[tuple[int, Optional[str]]] = []
        fingerprints: list[str] = []  # version-free, for the history row
        for index, point in enumerate(points):
            if cache is None:
                pending.append((index, None))
                continue
            key, fingerprint = cache.identity_for(point)
            fingerprints.append(fingerprint)
            entry = cache.lookup(key)
            if entry is None:
                pending.append((index, key))
            else:
                values[index] = entry["value"]
                snapshots[index] = entry["snapshot"]
                done += 1
                emit(done, point.label, "cache")

        # 2. Compute the rest, serially or across the pool.
        #    Snapshot capture is needed whenever results leave this
        #    process (workers) or outlive it (cache entries).
        capture = hub is not None or cache is not None
        if pending:
            if self.options.submit is not None:
                self._run_submit(
                    points, pending, cache, True, values, snapshots, report,
                    done, emit,
                )
            elif self.options.serve is not None:
                # Results cross process (and host) boundaries: always
                # capture snapshots so telemetry merges deterministically.
                self._run_dist(
                    points, pending, cache, True, values, snapshots, report,
                    done, emit,
                )
            elif self.options.parallel <= 1:
                self._run_serial(
                    points, pending, cache, hub, capture, values, snapshots, report,
                    done, emit,
                )
                report.computed = len(pending)
            else:
                self._run_pool(
                    points, pending, cache, capture, values, snapshots, report,
                    done, emit,
                )
                report.computed = len(pending)

        # 3. Deterministic telemetry merge, in point order.
        if hub is not None:
            for snapshot in snapshots:
                hub.merge(snapshot)
            hub.metrics.counter("sweep.points").inc(len(points))
            hub.metrics.counter("sweep.points.computed").inc(report.computed)
            if report.replayed:
                hub.metrics.counter("sweep.points.replayed").inc(report.replayed)
            if cache is not None:
                hub.metrics.counter("sweep.cache.hits").inc(cache.stats.hits)
                hub.metrics.counter("sweep.cache.misses").inc(cache.stats.misses)

        report.values = values
        report.cache = cache.stats if cache is not None else None
        if cache is not None:
            # Housekeeping: log this run's hit rate (tagged with the
            # version-independent grid identity so history survives
            # version bumps), then trim the cache.
            cache.record_history(fingerprint=grid_fingerprint_of(enumerate(fingerprints)))
            if self.options.cache_max_mb is not None:
                cache.evict(max_bytes=int(self.options.cache_max_mb * 1024 * 1024))
        return report

    def map(
        self,
        func: Callable,
        cells: Iterable[Mapping[str, Any]],
        *,
        telemetry=None,
        telemetry_points: Optional[Sequence[bool]] = None,
        label: Optional[Callable[[Mapping[str, Any]], str]] = None,
    ) -> list[Any]:
        """Run ``func`` over grid cells; returns values in cell order.

        ``telemetry_points`` selects which cells get the telemetry
        keyword injected (default: all of them when a hub is present).
        """
        cells = [dict(c) for c in cells]
        hub = telemetry if telemetry is not None else self.telemetry
        if telemetry_points is None:
            flags = [hub is not None] * len(cells)
        else:
            flags = list(telemetry_points)
            if len(flags) != len(cells):
                raise SweepError(
                    f"telemetry_points has {len(flags)} flags for {len(cells)} cells"
                )
        points = points_from_grid(func, cells, label=label)
        points = [
            SweepPoint(func=p.func, kwargs=p.kwargs, label=p.label, telemetry=flag)
            for p, flag in zip(points, flags)
        ]
        return self.run(points, telemetry=hub).values

    # -- serial path -------------------------------------------------------
    def _run_serial(
        self, points, pending, cache, hub, capture, values, snapshots, report,
        done, emit,
    ) -> None:
        for index, key in pending:
            point = points[index]
            attempts = self.options.retries + 1
            while True:
                attempts -= 1
                try:
                    if cache is None and hub is not None:
                        # Historical driver path: record live into the
                        # parent hub (spans nest under any open spans).
                        value, snapshot = point.call(telemetry=hub), None
                    else:
                        value, snapshot = _execute_point(point, capture)
                    break
                except Exception as exc:
                    if attempts > 0 and _is_retryable(exc):
                        report.retried += 1
                        emit(done, point.label, "retry")
                        continue
                    raise SweepPointError(point.label, exc) from exc
            values[index] = value
            snapshots[index] = snapshot
            if cache is not None and key is not None:
                cache.store(key, value, snapshot, meta={"label": point.label})
            done += 1
            emit(done, point.label, "run")

    # -- pool path ---------------------------------------------------------
    def _run_pool(
        self, points, pending, cache, capture, values, snapshots, report,
        done, emit,
    ) -> None:
        timeout = self.options.timeout
        attempts_left = {index: self.options.retries for index, _ in pending}
        keys = dict(pending)

        def submit(index: int):
            return pool.submit(_worker, points[index], capture, timeout)

        with _pool_lock:
            pool = _pool_of(self.options.parallel)
            try:
                first = pending[0][0]
                try:
                    futures = {submit(first): first}
                except BrokenProcessPool:
                    # A worker of the kept pool died while it sat idle;
                    # nothing of this run has been submitted yet.
                    _drop_pool()
                    pool = _pool_of(self.options.parallel)
                    futures = {submit(first): first}
                futures.update((submit(index), index) for index, _ in pending[1:])
                while futures:
                    finished, _ = wait(futures, return_when=FIRST_COMPLETED)
                    for future in finished:
                        index = futures.pop(future)
                        point = points[index]
                        try:
                            value, snapshot = future.result()
                        except Exception as exc:
                            if attempts_left[index] > 0 and _is_retryable(exc):
                                attempts_left[index] -= 1
                                report.retried += 1
                                emit(done, point.label, "retry")
                                futures[submit(index)] = index
                                continue
                            raise SweepPointError(point.label, exc) from exc
                        values[index] = value
                        snapshots[index] = snapshot
                        if cache is not None and keys.get(index) is not None:
                            cache.store(
                                keys[index], value, snapshot, meta={"label": point.label}
                            )
                        done += 1
                        emit(done, point.label, "run")
            except BaseException:
                # Only a run that completes leaves the pool up.
                _drop_pool()
                raise

    # -- distributed path ---------------------------------------------------
    def _run_dist(
        self, points, pending, cache, capture, values, snapshots, report,
        done, emit,
    ) -> None:
        """Serve pending points to remote workers; block until drained.

        Embeds a :class:`~repro.sweep.dist.service.SweepService` on the
        serve address with the pending points as its one job. The
        service owns fault tolerance (leases, stealing, poison) and
        durability (every DONE is committed to its store before the
        ack; ``journal_dir`` keeps that store across sessions, so a
        restart resumes instead of recomputing). This method only adapts
        the job to the engine's bookkeeping: progress events ("journal"
        for points an earlier session finished, "steal" for reclaimed
        leases) and the shared :meth:`_collect_job`.
        """
        from repro.sweep.dist.protocol import load_result, parse_hostport
        from repro.sweep.dist.service import SweepService, sigterm_calls
        from repro.sweep.dist.store import STORE_FILENAME
        from repro.telemetry.log import get_logger

        work = [(index, points[index]) for index, _ in pending]
        host, port = parse_hostport(self.options.serve)
        progress_done = done

        def announce(index: int, source: str) -> None:
            nonlocal progress_done
            if source in ("journal", "run"):
                progress_done += 1
            emit(progress_done, points[index].label, source)

        sources = {"done": "run", "reclaim": "steal", "requeue": "retry"}

        def on_transition(job_grid: str, event: str, record) -> None:
            if job_grid == grid and event in sources:
                announce(record.index, sources[event])

        with contextlib.ExitStack() as stack:
            directory = self.options.journal_dir
            if directory is None:
                directory = stack.enter_context(
                    tempfile.TemporaryDirectory(prefix="repro-serve-")
                )
            service = SweepService(
                Path(directory) / STORE_FILENAME,
                host=host,
                port=port,
                lease_seconds=self.options.lease_seconds,
                poison_workers=self.options.poison_workers,
                poison_failures=self.options.poison_failures,
                flight_path=self.options.flight_recorder,
                fleet_path=self.options.fleet_trace,
                observer=on_transition,
            )
            stack.callback(service.stop)
            submitted = service.submit(
                points[work[0][0]].label,
                work,
                timeout=self.options.timeout,
                retries=self.options.retries,
                capture=capture,
            )
            grid = submitted["grid"]
            # A job this store already knew may hold acknowledged results.
            replayed = (
                [] if submitted["created"] else sorted(service.store.done_payloads(grid))
            )
            get_logger("sweep.engine").info(
                "grid.open",
                grid=grid[:16],
                n_points=len(work),
                replayed=len(replayed),
                address=f"{service.host}:{service.port}",
            )
            for index in replayed:
                announce(index, "journal")
            self._service = service  # tests stop a session through it
            try:
                # Graceful drain: SIGTERM stops serving at the next tick;
                # the store already holds every acknowledged result.
                with sigterm_calls(service.request_stop):
                    service.serve_forever(until=grid)
            finally:
                self._service = None
            state, payloads, poisoned = service.results(grid)
            status = service.status(grid)
        report.replayed = len(replayed)
        report.computed = len(payloads) - len(replayed)
        report.reclaims = status["reclaims"]
        report.requeues = status["requeues"]
        report.retried += status["requeues"]
        self._collect_job(
            points, pending, cache, values, snapshots, grid, state,
            {index: load_result(blob) for index, blob in payloads.items()},
            poisoned,
        )

    # -- service submission path --------------------------------------------
    def _run_submit(
        self, points, pending, cache, capture, values, snapshots, report,
        done, emit,
    ) -> None:
        """SUBMIT pending points to a durable service; block until drained.

        The service owns execution (its fleet of workers), durability
        (the SQLite store — the job survives service SIGKILL/restart),
        and fair-share across tenants; this method only adapts one job
        to the engine's bookkeeping, mirroring :meth:`_run_dist`. A
        grid the service already held (SUBMIT answered ``created:
        false``) is served from its store: the points done by the first
        STATUS count as replayed and report progress as ``"journal"``;
        a still-running job computes the rest now, as ``"run"``.
        """
        from repro.sweep.dist.service import ServiceClient
        from repro.sweep.dist.store import JOB_TERMINAL

        work = [(index, points[index]) for index, _ in pending]
        name = self.options.job_name or points[work[0][0]].label
        client = ServiceClient(self.options.submit)
        submitted = client.submit(
            name,
            work,
            tenant=self.options.tenant,
            timeout=self.options.timeout,
            retries=self.options.retries,
            capture=capture,
        )
        grid = submitted["grid"]
        if submitted.get("state") == "collected":
            # The service's retention GC ate this exact grid: the
            # tombstone keeps SUBMIT idempotent (no silent re-run), but
            # the results are gone — surface that instead of polling a
            # job that will never exist.
            raise SweepError(
                f"job {grid[:16]} was garbage-collected by the service's "
                "retention policy; its results are no longer available "
                "(change the grid, or clear the tombstone to recompute)"
            )
        replayed: Optional[int] = 0 if submitted.get("created", True) else None
        progress_done = done
        last_seen = 0
        while True:
            status = client.status(grid)
            state = status.get("state")
            counts = status.get("counts", {})
            if replayed is None:
                # A job the service already held: what it had done by the
                # first STATUS was acknowledged earlier; the rest runs now.
                replayed = int(counts.get("done", 0))
            finished = int(counts.get("done", 0)) + int(counts.get("poisoned", 0))
            while last_seen < finished:
                last_seen += 1
                progress_done += 1
                emit(progress_done, name, "journal" if last_seen <= replayed else "run")
            if state in JOB_TERMINAL:
                break
            time.sleep(0.25)
        outcome = client.results(grid, decode=True)
        client.close()
        self._collect_job(
            points, pending, cache, values, snapshots, grid, state,
            outcome["results"], outcome["poisoned"],
        )
        report.replayed = replayed
        report.computed = len(pending) - replayed
        report.reclaims = status["reclaims"]
        report.requeues = status["requeues"]

    def _collect_job(
        self, points, pending, cache, values, snapshots, grid, state, results,
        poisoned,
    ) -> None:
        """Fold one finished service job into values/snapshots/cache.

        Shared by the serve and submit paths. Every result the job did
        produce is kept (and cached) first; then
        :class:`~repro.errors.SweepPoisonedError` if any point was
        quarantined and :class:`~repro.errors.SweepError` if the job
        ended short — partial results are not silently returned.
        """
        from repro.sweep.dist.store import JOB_DONE, JOB_POISONED

        keys = dict(pending)
        for index, (value, snapshot) in results.items():
            values[index] = value
            snapshots[index] = snapshot
            if cache is not None and keys.get(index) is not None:
                cache.store(keys[index], value, snapshot,
                            meta={"label": points[index].label})
        if state == JOB_POISONED or poisoned:
            raise SweepPoisonedError(
                [
                    {
                        "label": points[index].label,
                        "index": index,
                        "failures": failures,
                    }
                    for index, failures in sorted(poisoned.items())
                ]
            )
        if state != JOB_DONE:
            # Stopped (SIGTERM) or cancelled: surface the gap rather
            # than handing back _UNSET placeholders.
            raise SweepError(
                f"sweep job {grid[:16]} ended {state!r} with "
                f"{len(pending) - len(results)} unfinished points"
            )
        missing = [i for i, _ in pending if values[i] is _UNSET]
        if missing:
            raise SweepError(
                f"service returned {len(results)} results for "
                f"{len(pending)} submitted points (first missing: "
                f"{points[missing[0]].label})"
            )
