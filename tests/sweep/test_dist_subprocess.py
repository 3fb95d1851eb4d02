"""Chaos tests with real processes: SIGKILL workers and the serving sweep.

These are the acceptance criteria for the distributed sweep: the grid
must survive a worker dying mid-point (lease steal) and the serving
process dying mid-grid (replay from the store in its ``--journal``
directory), and the final values must be identical to a serial run.
Everything runs as subprocesses so the kills are real.
"""

import json
import os
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.errors import SweepPoisonedError
from repro.sweep import ResultCache, SweepEngine, SweepOptions, SweepPoint
from repro.sweep.dist.store import STORE_FILENAME

from tests.sweep.dist_grid import always_fail, flaky_once_add, slow_add

REPO_ROOT = Path(__file__).resolve().parent.parent.parent

SERVE_STUB = (
    "import json, sys\n"
    "from tests.sweep.dist_grid import serve_main\n"
    "sys.exit(serve_main(**json.loads(sys.argv[1])))\n"
)


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(REPO_ROOT / "src"), str(REPO_ROOT)]
    )
    return env


def _free_address():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return f"127.0.0.1:{probe.getsockname()[1]}"


def _spawn_coordinator(spec):
    return subprocess.Popen(
        [sys.executable, "-c", SERVE_STUB, json.dumps(spec)],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _spawn_worker(address, rank, stderr=subprocess.DEVNULL):
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "sweep",
            "--connect",
            address,
            "--workers",
            "1",
            "--poll",
            "0.05",
            "--reconnect-budget",
            "30",
            "--seed",
            str(rank),
        ],
        env=_env(),
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=stderr,
        text=True,
    )


def _read_log(log_path):
    """Execution log lines as (x, pid) tuples; tolerates a torn tail."""
    try:
        text = Path(log_path).read_text(encoding="utf-8")
    except FileNotFoundError:
        return []
    entries = []
    for line in text.splitlines():
        try:
            x, pid = line.split(":")
            entries.append((int(x), int(pid)))
        except ValueError:
            continue
    return entries


def _wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    pytest.fail(f"timed out waiting for {message}")


def _reap(*procs):
    for proc in procs:
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
    for proc in procs:
        try:
            proc.wait(timeout=15)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait(timeout=15)


def _serial_values(n):
    points = [SweepPoint(slow_add, {"x": x, "y": 1, "delay": 0.0}) for x in range(n)]
    return SweepEngine(SweepOptions()).run(points).values


def _finish(coordinator, timeout=90):
    out, err = coordinator.communicate(timeout=timeout)
    assert coordinator.returncode == 0, f"coordinator failed:\n{out}\n{err}"
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.slow
def test_worker_sigkill_mid_grid_grid_still_completes(tmp_path):
    n = 12
    address = _free_address()
    log = tmp_path / "executions.log"
    spec = {
        "address": address,
        "n": n,
        "delay": 0.4,
        "lease": 1.0,
        "log": str(log),
    }
    coordinator = _spawn_coordinator(spec)
    workers = [_spawn_worker(address, rank) for rank in range(2)]
    try:
        victim = workers[0]
        # Wait until the victim has *started* a point, then kill it in
        # the middle of that point's 0.4 s body: it dies holding a lease.
        _wait_for(
            lambda: any(pid == victim.pid for _, pid in _read_log(log)),
            timeout=30,
            message="victim worker to start executing",
        )
        time.sleep(0.05)
        victim.send_signal(signal.SIGKILL)
        victim.wait(timeout=10)

        data = _finish(coordinator)
    finally:
        _reap(coordinator, *workers)

    assert data["values"] == _serial_values(n)
    assert data["computed"] == n
    assert data["reclaims"] >= 1  # the victim's lease was stolen
    survivors = {pid for _, pid in _read_log(log)} - {victim.pid}
    assert survivors == {workers[1].pid}


@pytest.mark.slow
def test_coordinator_sigkill_then_restart_resumes_from_journal(tmp_path):
    n = 10
    address = _free_address()
    log = tmp_path / "executions.log"
    spec = {
        "address": address,
        "n": n,
        "delay": 0.2,
        "lease": 1.0,
        "journal": str(tmp_path / "journal"),
        "log": str(log),
    }
    first = _spawn_coordinator(spec)
    workers = [_spawn_worker(address, rank) for rank in range(2)]
    second = None
    try:
        # Let a few points land in the store, then kill the serving
        # process without warning.
        _wait_for(
            lambda: len(_read_log(log)) >= 3,
            timeout=30,
            message="first points to execute",
        )
        first.send_signal(signal.SIGKILL)
        first.wait(timeout=10)

        # Workers are now reconnect-looping against a dead address;
        # a restarted sweep on the same journal directory picks them up.
        time.sleep(0.3)
        second = _spawn_coordinator(spec)
        data = _finish(second)
    finally:
        _reap(first, *(p for p in [second] if p), *workers)

    assert data["values"] == _serial_values(n)
    assert data["replayed"] >= 1  # the store saved completed work
    assert data["replayed"] + data["computed"] == n
    # Acknowledged points never re-execute. Only points in flight when
    # the serving process died (at most one per worker) may run twice.
    executions = len(_read_log(log))
    assert n <= executions <= n + len(workers)


@pytest.mark.slow
def test_a_fleet_requeues_a_point_that_fails_once_and_poisons_one_that_always_fails(
    tmp_path,
):
    address = _free_address()
    slow = [SweepPoint(slow_add, {"x": x, "y": 1, "delay": 0.3}) for x in range(4)]
    points = [
        slow[0],
        SweepPoint(flaky_once_add, {"x": 10, "y": 1, "marker": str(tmp_path / "flaky")}),
        slow[1],
        SweepPoint(always_fail, {"x": 20}),
        slow[2],
        slow[3],
    ]
    options = SweepOptions(
        serve=address, cache_dir=tmp_path / "cache", journal_dir=tmp_path / "journal"
    )
    engine = SweepEngine(options)
    raised = []

    def serve():
        try:
            engine.run(points)
        except Exception as exc:  # checked on the test's thread
            raised.append(exc)

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    workers = [_spawn_worker(address, rank, stderr=subprocess.PIPE) for rank in range(2)]
    try:
        server.join(90)
        assert not server.is_alive(), "the fleet never finished the grid"
        for worker in workers:
            worker.send_signal(signal.SIGTERM)
        outcomes = [(worker.wait(timeout=30), worker.stderr.read()) for worker in workers]
    finally:
        if engine._service is not None:
            engine._service.request_stop()
        _reap(*workers)

    # Only the always-failing cell is poisoned, with a worker traceback.
    (error,) = raised
    assert isinstance(error, SweepPoisonedError)
    (cell,) = error.poisoned
    assert (cell["index"], cell["label"]) == (3, points[3].label)
    assert "cell 20 always fails" in cell["failures"][-1]["error"]
    assert "always_fail" in cell["failures"][-1]["traceback"]

    # The flaky cell finished after exactly one requeue.
    conn = sqlite3.connect(tmp_path / "journal" / STORE_FILENAME)
    try:
        requeues = conn.execute(
            "SELECT COUNT(*) FROM events WHERE event = 'requeue' AND idx = 1"
        ).fetchone()[0]
        (state,) = conn.execute("SELECT state FROM points WHERE idx = 1").fetchone()
    finally:
        conn.close()
    assert (requeues, state) == (1, "done")

    # The cache holds the five good values.
    cache = ResultCache(tmp_path / "cache")
    cached = {}
    for index, point in enumerate(points):
        entry = cache.lookup(cache.identity_for(point)[0])
        if entry is not None:
            cached[index] = entry["value"]
    assert cached == {0: 1, 1: 11, 2: 2, 4: 3, 5: 4}

    for code, stderr in outcomes:
        assert code == 0, stderr
        assert stderr.rstrip().endswith("(drained)"), stderr
