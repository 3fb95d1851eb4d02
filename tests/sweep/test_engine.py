"""Tests for the sweep engine: serial/pool execution, retries, caching."""

import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import SweepError, SweepPointError, SweepTimeoutError
from repro.sweep import (
    SweepEngine,
    SweepOptions,
    SweepPoint,
    grid,
)
from repro.telemetry import Telemetry


class TransientError(Exception):
    retryable = True


def square(x):
    return x * x


def traced_square(x, telemetry=None):
    if telemetry is not None:
        with telemetry.span("square", x=x):
            telemetry.metrics.counter("calls").inc()
            return x * x
    return x * x


def boom(x):
    raise ValueError(f"bad cell {x}")


def flaky(marker, fail_times):
    """Fails with a retryable error until it has been called fail_times."""
    path = Path(marker)
    count = int(path.read_text()) if path.exists() else 0
    path.write_text(str(count + 1))
    if count < fail_times:
        raise TransientError(f"attempt {count}")
    return "ok"


def sleepy(seconds):
    time.sleep(seconds)
    return seconds


def rendezvous(directory, parties):
    """Check in under ``directory`` and wait until ``parties`` distinct
    processes have; returns this process's pid. ``parties`` points of one
    run therefore occupy ``parties`` different workers at once."""
    Path(directory, str(os.getpid())).touch()
    deadline = time.monotonic() + 30.0
    while len(os.listdir(directory)) < parties and time.monotonic() < deadline:
        time.sleep(0.005)
    return os.getpid()


def crash(code):
    os._exit(code)


def slow_once(marker):
    """Wedges (until a timeout interrupts it) on the first call only."""
    path = Path(marker)
    if not path.exists():
        path.write_text("1")
        time.sleep(30.0)
    return os.getpid()


def square_and_pid(x):
    return x * x, os.getpid()


def parent_pid(x):
    return os.getppid()


def alive(pid):
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def points_for(xs, telemetry=False):
    return [
        SweepPoint(func=traced_square if telemetry else square, kwargs={"x": x},
                   telemetry=telemetry)
        for x in xs
    ]


# -- options ---------------------------------------------------------------


def test_options_validate():
    with pytest.raises(SweepError, match="retries"):
        SweepOptions(retries=-1)
    with pytest.raises(SweepError, match="timeout"):
        SweepOptions(timeout=0.0)


# -- execution order and parity --------------------------------------------


def test_serial_returns_values_in_point_order():
    report = SweepEngine().run(points_for([3, 1, 2]))
    assert report.values == [9, 1, 4]
    assert report.n_points == report.computed == 3
    assert report.cache is None


def test_pool_matches_serial_in_point_order():
    xs = list(range(7))
    serial = SweepEngine().run(points_for(xs)).values
    pooled = SweepEngine(SweepOptions(parallel=3)).run(points_for(xs)).values
    assert pooled == serial


def test_empty_run():
    report = SweepEngine().run([])
    assert report.values == []
    assert report.n_points == 0


# -- failures --------------------------------------------------------------


def test_terminal_error_names_the_cell_serial():
    with pytest.raises(SweepPointError, match="boom"):
        SweepEngine().run([SweepPoint(func=boom, kwargs={"x": 5})])


def test_terminal_error_names_the_cell_pool():
    points = points_for([1, 2]) + [SweepPoint(func=boom, kwargs={"x": 5})]
    with pytest.raises(SweepPointError, match="boom"):
        SweepEngine(SweepOptions(parallel=2)).run(points)


def test_retryable_error_is_retried_serial(tmp_path):
    marker = tmp_path / "attempts"
    point = SweepPoint(func=flaky, kwargs={"marker": str(marker), "fail_times": 2})
    report = SweepEngine(SweepOptions(retries=2)).run([point])
    assert report.values == ["ok"]
    assert report.retried == 2


def test_retryable_error_is_retried_pool(tmp_path):
    marker = tmp_path / "attempts"
    point = SweepPoint(func=flaky, kwargs={"marker": str(marker), "fail_times": 1})
    report = SweepEngine(SweepOptions(parallel=2, retries=1)).run([point])
    assert report.values == ["ok"]
    assert report.retried == 1


def test_retries_exhausted_surfaces_original_error(tmp_path):
    marker = tmp_path / "attempts"
    point = SweepPoint(func=flaky, kwargs={"marker": str(marker), "fail_times": 99})
    with pytest.raises(SweepPointError) as excinfo:
        SweepEngine(SweepOptions(retries=1)).run([point])
    assert isinstance(excinfo.value.cause, TransientError)


def test_worker_timeout_converts_to_sweep_timeout():
    point = SweepPoint(func=sleepy, kwargs={"seconds": 30.0})
    options = SweepOptions(parallel=2, timeout=0.2, retries=0)
    with pytest.raises(SweepPointError) as excinfo:
        SweepEngine(options).run([point])
    assert isinstance(excinfo.value.cause, SweepTimeoutError)
    assert excinfo.value.cause.retryable


# -- the kept worker pool --------------------------------------------------


def pool_pids(tmp_path, name, parallel, **options):
    """The worker pids of one pooled run that occupies every worker."""
    directory = tmp_path / name
    directory.mkdir()
    points = [
        SweepPoint(func=rendezvous, kwargs={"directory": str(directory), "parties": parallel})
        for _ in range(parallel)
    ]
    values = SweepEngine(SweepOptions(parallel=parallel, **options)).run(points).values
    assert len(set(values)) == parallel
    return set(values)


def test_pooled_runs_share_one_pool(tmp_path):
    first = pool_pids(tmp_path, "first", 2)
    assert pool_pids(tmp_path, "second", 2) == first
    assert os.getpid() not in first


def test_a_crashed_worker_fails_its_run_and_the_next_run_gets_a_fresh_pool():
    # The crash is the run's only point: a broken pool fails every open
    # future, and the first one read names the run's error.
    with pytest.raises(SweepPointError, match="crash"):
        SweepEngine(SweepOptions(parallel=2)).run(
            [SweepPoint(func=crash, kwargs={"code": 3})]
        )
    assert SweepEngine(SweepOptions(parallel=2)).run(points_for([3, 4, 5])).values == [
        9, 16, 25,
    ]


def test_a_terminal_error_leaves_no_stale_result_for_the_next_run(tmp_path):
    before = pool_pids(tmp_path, "before", 2)
    slow = [SweepPoint(func=sleepy, kwargs={"seconds": 0.2}) for _ in range(4)]
    with pytest.raises(SweepPointError, match="boom"):
        SweepEngine(SweepOptions(parallel=2)).run(
            slow + [SweepPoint(func=boom, kwargs={"x": 5})] + slow
        )
    report = SweepEngine(SweepOptions(parallel=2)).run(points_for(range(6)))
    assert report.values == [0, 1, 4, 9, 16, 25]
    assert report.computed == 6 and report.retried == 0
    assert pool_pids(tmp_path, "after", 2).isdisjoint(before)


def test_another_size_replaces_the_pool(tmp_path):
    two = pool_pids(tmp_path, "two", 2)
    three = pool_pids(tmp_path, "three", 3)
    assert len(three) == 3 and three.isdisjoint(two)


def _pooled_run_in_fork_child() -> None:
    report = SweepEngine(SweepOptions(parallel=2)).run(
        [SweepPoint(func=parent_pid, kwargs={"x": x}) for x in range(4)]
    )
    # The child's run went to workers of its own, not to its parent's.
    # A failed check exits 1; a normal return exits 0 once the child has
    # shut its own pool down.
    assert report.values == [os.getpid()] * 4


def test_a_fork_child_runs_its_own_pool(tmp_path):
    pool_pids(tmp_path, "parent", 2)
    child = multiprocessing.get_context("fork").Process(target=_pooled_run_in_fork_child)
    child.start()
    child.join(60)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("a fork child's pooled run hung")
    assert child.exitcode == 0


def test_concurrent_pooled_runs_take_turns():
    """More threads than cores run pooled runs back to back, at two pool
    sizes, and one thread's runs fail every other time. Each run gets its
    own values on at most ``parallel`` workers, or its own error: another
    thread's resize or failed-run shutdown never lands in it."""
    outcomes = []

    def run(parallel, failing):
        for k in range(4):
            xs = range(k, k + 6)
            points = [SweepPoint(func=square_and_pid, kwargs={"x": x}) for x in xs]
            fails = failing and k % 2 == 0
            if fails:
                points.append(SweepPoint(func=boom, kwargs={"x": k}))
            try:
                values = SweepEngine(SweepOptions(parallel=parallel)).run(points).values
            except Exception as exc:  # checked below, on the test's thread
                outcomes.append((fails, isinstance(exc, SweepPointError) and "boom" in str(exc)))
                continue
            pids = {pid for _, pid in values}
            outcomes.append((fails, [v for v, _ in values] == [x * x for x in xs]
                             and len(pids) <= parallel))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=run, args=args)
            for args in ((2, False), (2, False), (3, False), (2, True))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 16
    assert sum(fails for fails, _ in outcomes) == 2
    assert all(ok for _, ok in outcomes), outcomes


def test_a_timed_out_point_keeps_the_pool(tmp_path):
    before = pool_pids(tmp_path, "before", 2)
    point = SweepPoint(func=slow_once, kwargs={"marker": str(tmp_path / "marker")})
    report = SweepEngine(SweepOptions(parallel=2, timeout=0.2, retries=1)).run([point])
    assert report.retried == 1 and report.values[0] in before
    assert pool_pids(tmp_path, "after", 2, timeout=0.2) == before


def test_a_worker_lost_between_runs_is_replaced(tmp_path):
    pids = pool_pids(tmp_path, "before", 2)
    os.kill(min(pids), signal.SIGKILL)
    # The pool notices, stops its other worker and reaps both.
    deadline = time.monotonic() + 30.0
    while any(alive(pid) for pid in pids) and time.monotonic() < deadline:
        time.sleep(0.01)
    assert SweepEngine(SweepOptions(parallel=2)).run(points_for([1, 2, 3])).values == [
        1, 4, 9,
    ]
    assert pool_pids(tmp_path, "after", 2).isdisjoint(pids)


# -- caching ---------------------------------------------------------------


def test_cache_serves_second_run(tmp_path):
    xs = [1, 2, 3, 4]
    options = SweepOptions(cache_dir=tmp_path)
    cold = SweepEngine(options).run(points_for(xs))
    assert cold.computed == 4
    assert cold.cache.stores == 4
    warm = SweepEngine(SweepOptions(cache_dir=tmp_path)).run(points_for(xs))
    assert warm.computed == 0
    assert warm.from_cache == 4
    assert warm.cache.hits == 4
    assert warm.values == cold.values


def test_cache_only_computes_new_points(tmp_path):
    options = SweepOptions(cache_dir=tmp_path)
    SweepEngine(options).run(points_for([1, 2]))
    report = SweepEngine(SweepOptions(cache_dir=tmp_path)).run(points_for([1, 2, 3]))
    assert report.computed == 1
    assert report.values == [1, 4, 9]


def test_a_cached_run_renders_each_point_once(tmp_path, monkeypatch):
    """Key and history fingerprint come from one rendering per point, and
    the history row still carries the grid's version-free identity."""
    import repro.sweep.cache as cache_module

    rendered = []
    original = cache_module.fingerprint

    def spy(obj):
        if isinstance(obj, dict) and set(obj) == {"x"}:
            rendered.append(obj["x"])
        return original(obj)

    monkeypatch.setattr(cache_module, "fingerprint", spy)
    points = points_for([1, 2, 3])
    options = SweepOptions(cache_dir=tmp_path)
    for expected_hits in (0, 3):
        rendered.clear()
        report = SweepEngine(options).run(points)
        assert (report.values, report.cache.hits) == ([1, 4, 9], expected_hits)
        assert rendered == [1, 2, 3]
    monkeypatch.undo()
    rows = cache_module.ResultCache(tmp_path).history()
    assert [row["fingerprint"] for row in rows] == [
        cache_module.grid_fingerprint(enumerate(points))
    ] * 2


def test_serial_cached_run_leaves_dist_package_unloaded(tmp_path):
    # record_history appends history.jsonl without the service stack.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = (
        "import json, sys\n"
        "from repro.sweep import SweepEngine, SweepOptions, SweepPoint\n"
        "points = [SweepPoint(func=json.dumps, kwargs={'obj': x}) for x in (1, 2)]\n"
        f"options = SweepOptions(cache_dir={str(tmp_path)!r})\n"
        "assert SweepEngine(options).run(points).values == ['1', '2']\n"
        "assert SweepEngine(options).run(points).from_cache == 2\n"
        "loaded = [m for m in sys.modules if m.startswith('repro.sweep.dist')]\n"
        "assert not loaded, loaded\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert len((tmp_path / "history.jsonl").read_text().splitlines()) == 2


def test_cache_replays_telemetry_on_hits(tmp_path):
    points = points_for([2, 3], telemetry=True)
    SweepEngine(SweepOptions(cache_dir=tmp_path)).run(points)
    hub = Telemetry()
    report = SweepEngine(SweepOptions(cache_dir=tmp_path)).run(
        points_for([2, 3], telemetry=True), telemetry=hub
    )
    assert report.computed == 0
    names = [s.name for s in hub.tracer.finished_spans()]
    assert names == ["square", "square"]
    assert hub.metrics.counter("calls").value == 2.0


# -- progress --------------------------------------------------------------


def test_progress_reports_every_point(tmp_path):
    events = []

    def progress(done, total, label, source):
        events.append((done, total, source))

    options = SweepOptions(cache_dir=tmp_path, progress=progress)
    SweepEngine(options).run(points_for([1, 2]))
    assert [e[2] for e in events] == ["run", "run"]
    events.clear()
    SweepEngine(
        SweepOptions(cache_dir=tmp_path, progress=progress)
    ).run(points_for([1, 2]))
    assert [e[2] for e in events] == ["cache", "cache"]
    assert [e[0] for e in events] == [1, 2]
    assert all(e[1] == 2 for e in events)


# -- telemetry merge -------------------------------------------------------


def test_serial_live_hub_matches_pool_merged_hub():
    xs = [1, 2, 3]
    live = Telemetry()
    SweepEngine().run(points_for(xs, telemetry=True), telemetry=live)
    merged = Telemetry()
    SweepEngine(SweepOptions(parallel=2)).run(
        points_for(xs, telemetry=True), telemetry=merged
    )
    for hub in (live, merged):
        spans = hub.tracer.finished_spans()
        assert [s.name for s in spans] == ["square", "square", "square"]
        assert [s.args["x"] for s in spans] == xs
        assert hub.metrics.counter("calls").value == 3.0
    assert merged.metrics.counter("sweep.points").value == 3.0


def test_engine_emits_sweep_counters(tmp_path):
    hub = Telemetry()
    options = SweepOptions(cache_dir=tmp_path)
    SweepEngine(options, telemetry=hub).run(points_for([1, 2]))
    assert hub.metrics.counter("sweep.points").value == 2.0
    assert hub.metrics.counter("sweep.points.computed").value == 2.0
    assert hub.metrics.counter("sweep.cache.misses").value == 2.0


# -- map -------------------------------------------------------------------


def test_map_over_grid():
    values = SweepEngine().map(square, grid(x=[1, 2, 3]))
    assert values == [1, 4, 9]


def test_map_telemetry_points_flags():
    hub = Telemetry()
    values = SweepEngine().map(
        traced_square,
        grid(x=[1, 2, 3]),
        telemetry=hub,
        telemetry_points=[False, True, False],
    )
    assert values == [1, 4, 9]
    assert [s.args["x"] for s in hub.tracer.finished_spans()] == [2]


def test_map_rejects_mismatched_flags():
    with pytest.raises(SweepError, match="telemetry_points"):
        SweepEngine().map(square, grid(x=[1, 2]), telemetry_points=[True])
