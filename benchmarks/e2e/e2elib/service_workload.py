"""``service_roundtrip``: the sweep control plane, nothing else.

``repro sweep --service`` runs as a child process on an on-disk SQLite
store. One closed-loop client SUBMITs a fixed number of live grids of
trivial points, then a single worker connection loops CLAIM -> execute ->
DONE until the service reports DRAINED, then RESULTS of every grid is
decoded and compared with values recomputed offline. DES, the sweep
engine and bulk RESP frames do no work here.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np

from e2elib import stats
from e2elib.harness import Workload
from e2elib.speed import Samples
from e2elib.spans import durations
from e2elib.wiremicro import resp_small_micro
from repro import __version__
from repro.errors import ReproError
from repro.sweep.cache import point_fingerprint
from repro.sweep.dist.loadgen import loadgen_point
from repro.sweep.dist.protocol import (
    DRAINED,
    Assignment,
    dump_result,
    dump_submission,
    grid_signature,
)
from repro.sweep.dist.service import ServiceClient
from repro.sweep.dist.store import SweepStore
from repro.sweep.point import SweepPoint
from repro.transport.redis_backend import MiniRedisConnection

WORKER = "e2e-worker"
SCALE_KWARG = 2.0
#: Long enough that no lease expires mid-round (a reclaim would be a retry).
LEASE_SECONDS = 300.0
START_TIMEOUT_S = 30.0
#: Operations per speed segment: ~50-100 ms, shorter than the host's phases.
SUBMITS_PER_SEGMENT = 5
POINTS_PER_SEGMENT = 25


@dataclass(frozen=True)
class ServiceScale:
    #: Live jobs per round. CLAIM cost grows with it, so it is part of
    #: the workload's definition, not a tuning knob.
    grids: int = 40
    points: int = 40
    claim_points: int = 5  # points per job in the live-jobs CLAIM comparison
    micro_n: int = 200  # samples per store / protocol / status micro-timing
    setup_repeats: int = 5
    min_rounds: int = 3
    traced_rounds: int = 1
    traced_compare_rounds: int = 2


def make_grid(rng: np.random.Generator, n_points: int) -> list[tuple[int, SweepPoint]]:
    return [
        (i, SweepPoint(
            func=loadgen_point,
            kwargs={"x": round(float(rng.uniform(-1000.0, 1000.0)), 6), "scale": SCALE_KWARG},
        ))
        for i in range(n_points)
    ]


def expected_values(points: list[tuple[int, SweepPoint]]) -> dict[int, float]:
    """Recomputed offline: the service never executes a point itself."""
    return {i: float(p.kwargs["x"]) * SCALE_KWARG for i, p in points}


class ServiceRoundtrip(Workload):
    name = "service_roundtrip"
    FULL = ServiceScale()
    SMOKE = ServiceScale(
        points=1, claim_points=1, micro_n=20, setup_repeats=1, min_rounds=2,
    )

    def __init__(self, ctx, workdir) -> None:
        super().__init__(ctx, workdir)
        self.scale: ServiceScale = self.SMOKE if ctx.smoke else self.FULL
        self.child: subprocess.Popen | None = None
        self.worker: MiniRedisConnection | None = None
        self.submit_s = self.series()
        self.results_s = self.series()
        self.worker_busy = 0  # -BUSY replies on the worker connection
        self.duplicates = 0
        self.store_path = workdir / "store.sqlite"

    # -- child lifecycle ---------------------------------------------------
    def _start_service(self) -> None:
        log_path = self.workdir / "service.stderr"
        env = dict(os.environ)
        src = str(self.ctx.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        with open(log_path, "wb") as log:
            self.child = subprocess.Popen(
                [sys.executable, "-m", "repro", "sweep", "--service", "127.0.0.1:0",
                 "--store", str(self.store_path), "--lease", str(LEASE_SECONDS)],
                env=env, cwd=self.workdir, stdout=log, stderr=log,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = log_path.read_text(errors="replace")
            if "sweep service on " in text:
                self.address = text.split("sweep service on ", 1)[1].split()[0]
                return
            if self.child.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"sweep service did not start: {log_path.read_text(errors='replace')}")

    def teardown(self) -> None:
        if self.worker is not None:
            self.worker.close()
            self.worker = None
        child, self.child = self.child, None
        if child is None:
            return
        if child.poll() is None:
            child.send_signal(signal.SIGTERM)  # the service's graceful drain
            try:
                child.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                child.kill()
        child.wait()

    # -- set-up ------------------------------------------------------------
    def setup(self) -> None:
        self._start_service()
        self.lap(raw=True)  # exec, imports from the page cache, SQLite creation
        self.client = ServiceClient(self.address)
        host, port = self.address.rsplit(":", 1)
        self.worker = MiniRedisConnection(host, int(port), timeout=30.0)
        caps = json.dumps({"version": __version__, "host": "e2e", "pid": os.getpid()})
        self.worker.command("HELLO", WORKER, caps)
        # Warm-up: one small job through every command of the round.
        self.rng = np.random.default_rng([self.ctx.seed, 3])
        self._serve_jobs("warm", grids=2, points=10, latencies=Samples())
        self.submit_s.clear()
        self.results_s.clear()

    # -- the closed loop ---------------------------------------------------
    def _submit(self, tag: str, grids: int, points: int) -> dict[str, dict[int, float]]:
        """SUBMIT ``grids`` jobs; returns {grid signature: expected values}."""
        rec = self.ctx.rec
        jobs = {}
        for g in range(grids):
            grid = make_grid(self.rng, points)
            self.tally.ops()
            start = time.perf_counter()
            try:
                with rec.span("submit", id=f"{tag}/g{g}"):
                    reply = self.client.submit(f"{tag}-g{g}", grid, tenant="e2e", capture=False)
            except ReproError as exc:  # -BUSY past the budget, or -ERR
                self._refused("SUBMIT", exc)
                continue
            self.submit_s.append(time.perf_counter() - start)
            if not reply.get("created"):
                self.tally.fail(f"{self.name}: SUBMIT {tag}-g{g} was not a new job: {reply}")
            jobs[reply["grid"]] = expected_values(grid)
            if g % SUBMITS_PER_SEGMENT == SUBMITS_PER_SEGMENT - 1:
                self.lap()
        self.lap()
        return jobs

    def _refused(self, command: str, exc: Exception) -> None:
        """A -BUSY or -ERR reply (or a lost connection) is a failed operation."""
        if command in ("CLAIM", "DONE") and "BUSY" in str(exc):
            self.worker_busy += 1  # the client counts its own in busy_refusals
        self.tally.fail(f"{self.name}: {command} refused: {exc}")

    @property
    def busy_replies(self) -> int:
        return self.worker_busy + self.client.busy_refusals

    def _drain(self, tag: str, latencies: Samples) -> None:
        """CLAIM -> execute -> DONE until DRAINED; one sample per point."""
        rec, worker = self.ctx.rec, self.worker
        idle = 0
        while True:
            if len(latencies) % POINTS_PER_SEGMENT == 0:
                latencies.settle(self.lap())
            start = time.perf_counter()
            try:
                with rec.span("CLAIM", id=tag):
                    reply = worker.command("CLAIM", WORKER)
            except ReproError as exc:
                self.tally.ops()
                self._refused("CLAIM", exc)
                return
            if reply == DRAINED:
                latencies.settle(self.lap())
                return
            if reply is None:  # nothing claimable yet no job finished: never with one worker
                idle += 1
                if idle > 100:
                    self.tally.fail(f"{self.name}: CLAIM returned nil {idle} times")
                    return
                time.sleep(0.01)
                continue
            self.tally.ops()
            assignment = Assignment.from_bytes(reply)
            value = assignment.point.call()
            point_id = f"{tag}/{assignment.grid[:8]}/{assignment.index}"
            try:
                with rec.span("DONE", id=point_id):
                    ack = worker.command(
                        "DONE", WORKER, str(assignment.index), assignment.grid,
                        dump_result(value, None),
                    )
            except ReproError as exc:
                self._refused("DONE", exc)
                continue
            latencies.append(time.perf_counter() - start)
            if ack == "DUPLICATE":
                self.duplicates += 1
            if ack != "OK":
                self.tally.fail(f"{self.name}: DONE acked {ack!r}")

    def _collect(self, tag: str, jobs: dict[str, dict[int, float]]) -> None:
        rec = self.ctx.rec
        for signature, expected in jobs.items():
            self.tally.ops()
            start = time.perf_counter()
            try:
                with rec.span("results", id=f"{tag}/{signature[:8]}"):
                    reply = self.client.results(signature)
            except ReproError as exc:
                self._refused("RESULTS", exc)
                continue
            self.results_s.append(time.perf_counter() - start)
            got = {i: value for i, (value, _snapshot) in reply["results"].items()}
            if reply["state"] != "done" or got != expected:
                self.tally.fail(
                    f"{self.name}: RESULTS of {signature[:8]} is {reply['state']!r} "
                    f"with {len(got)} of {len(expected)} values as recomputed"
                )
            if len(self.results_s) % SUBMITS_PER_SEGMENT == 0:
                self.lap()
        self.lap()

    def _serve_jobs(self, tag: str, grids: int, points: int, latencies=None) -> None:
        jobs = self._submit(tag, grids, points)
        self._drain(tag, self.op_latencies if latencies is None else latencies)
        self._collect(tag, jobs)

    def round(self, index: int) -> None:
        self._serve_jobs(f"r{index}", self.scale.grids, self.scale.points)

    # -- reporting ---------------------------------------------------------
    def workload_metrics(self) -> dict:
        return {
            "submit_ms_p50": stats.latency_metric(self.submit_s, 50),
            "point_rtt_ms_p50": stats.latency_metric(self.op_latencies, 50),
            "point_rtt_ms_p95": stats.latency_metric(self.op_latencies, 95),
        }

    def finish(self) -> None:
        # A -BUSY the client retried through still counts as a refusal.
        self.tally.check(self.busy_replies == 0,
                         f"{self.name}: {self.busy_replies} -BUSY replies")
        self.tally.check(self.duplicates == 0,
                         f"{self.name}: {self.duplicates} DUPLICATE acks with one worker")

    def exact_counts(self) -> dict:
        return {"points_per_round": self.scale.grids * self.scale.points,
                "duplicates": self.duplicates, "busy_replies": self.busy_replies}

    def stores(self) -> dict:
        return {"sqlite_store": str(self.store_path.parent)}

    # -- per-layer ---------------------------------------------------------
    def _claim_p50(self, tag: str, grids: int, points: int) -> float:
        """Median CLAIM latency with ``grids`` live jobs of ``points`` each."""
        before = len(self.ctx.rec.spans)
        self._serve_jobs(tag, grids, points, latencies=Samples())
        claims = durations(self.ctx.rec.spans[before:], "CLAIM")
        return 1e3 * stats.percentile(claims, 50)

    def _store_micros(self) -> dict:
        """Direct calls on a temp store: what DONE/SUBMIT/RESULTS commit."""
        n = self.scale.micro_n
        store = SweepStore(self.workdir / "micro.sqlite")
        rng = np.random.default_rng(0)
        try:
            submit_s, payload_s, done_s = [], [], []
            grids = []
            for g in range(max(4, n // 10)):
                points = make_grid(rng, self.scale.points)
                signature = grid_signature(points)
                specs = [  # the rows SweepService.submit writes
                    (i, pickle.dumps(p, protocol=pickle.HIGHEST_PROTOCOL),
                     point_fingerprint(p.func_path, p.kwargs))
                    for i, p in points
                ]
                start = time.perf_counter()
                store.submit_job(signature, name=f"m{g}", points=specs, tenant="e2e")
                submit_s.append(time.perf_counter() - start)
                grids.append(signature)
            blob = dump_result(1.0, None)
            for k in range(n):
                grid, idx = grids[k % len(grids)], k // len(grids)
                start = time.perf_counter()
                store.record_done(grid, idx, blob, worker=WORKER)
                done_s.append(time.perf_counter() - start)
            for grid in grids:
                start = time.perf_counter()
                store.done_payloads(grid)
                payload_s.append(time.perf_counter() - start)
        finally:
            store.close()
        return {
            "sweep.dist.store.record_done_ms_p50": 1e3 * stats.percentile(done_s, 50),
            "sweep.dist.store.record_done_ms_p95": 1e3 * stats.percentile(done_s, 95),
            "sweep.dist.store.submit_job_ms_p50": 1e3 * stats.percentile(submit_s, 50),
            "sweep.dist.store.done_payloads_ms_p50": 1e3 * stats.percentile(payload_s, 50),
        }

    def _protocol_micros(self) -> dict:
        n = self.scale.micro_n
        grid = make_grid(np.random.default_rng(0), self.scale.points)
        assignment = Assignment(index=0, point=grid[0][1], lease_seconds=LEASE_SECONDS,
                                grid="0" * 64, capture=False).to_bytes()

        def per_call_us(call) -> float:
            return 1e6 * stats.seconds_per_call(call, n)

        return {
            "sweep.dist.protocol.dump_submission_us": per_call_us(
                lambda: dump_submission("m", grid, tenant="e2e", capture=False)),
            "sweep.dist.protocol.load_assignment_us": per_call_us(
                lambda: Assignment.from_bytes(assignment)),
            "sweep.dist.protocol.dump_result_us": per_call_us(lambda: dump_result(1.0, None)),
        }

    def layers(self, untraced_wall: float) -> dict:
        rec = self.ctx.rec
        spans = list(rec.spans)  # the traced round, before the extra jobs below

        def ms(name: str, p: float) -> float:
            return 1e3 * stats.percentile(durations(spans, name), p)

        rows = {
            "sweep.dist.service.claim_ms_p50": ms("CLAIM", 50),
            "sweep.dist.service.claim_ms_p95": ms("CLAIM", 95),
            "sweep.dist.service.done_ms_p50": ms("DONE", 50),
            "sweep.dist.service.done_ms_p95": ms("DONE", 95),
            "sweep.dist.service.results_ms_p50": ms("results", 50),
        }
        status_s, ping_s = [], []
        for _ in range(self.scale.micro_n):
            start = time.perf_counter()
            self.client.status()
            status_s.append(time.perf_counter() - start)
            start = time.perf_counter()
            self.worker.command("PING")
            ping_s.append(time.perf_counter() - start)
        rows["sweep.dist.service.status_ms_p50"] = 1e3 * stats.percentile(status_s, 50)
        rows["transport.server.ping_rtt_us"] = 1e6 * stats.percentile(ping_s, 50)
        # The same number of queued points as one job and as many jobs:
        # CLAIM walks the fair-share ring under the dispatch lock.
        total = self.scale.grids * self.scale.claim_points
        rows["sweep.dist.service.claim_ms_p50.live_jobs_1"] = self._claim_p50("one", 1, total)
        rows[f"sweep.dist.service.claim_ms_p50.live_jobs_{self.scale.grids}"] = self._claim_p50(
            "many", self.scale.grids, self.scale.claim_points)
        rows["sweep.dist.service.busy_replies"] = float(self.busy_replies)
        rows["sweep.dist.service.duplicates"] = float(self.duplicates)
        rows.update(self._store_micros())
        rows.update(self._protocol_micros())
        rows.update(resp_small_micro(self.scale.micro_n * 50))
        return rows
