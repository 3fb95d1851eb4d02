"""Performance baseline tooling: ``python -m repro bench``.

The DES engine's event throughput is the hard ceiling on every number
this reproduction produces, so its trajectory is tracked in the repo:
``repro bench`` runs the DES micro-benchmarks plus one round of each
paper experiment (the run ``experiments_full_output.txt`` archives),
writes a machine-readable ``BENCH_<date>.json`` (events/sec,
per-experiment wall seconds, peak RSS), and prints a delta table
against the most recent committed baseline. CI runs
``repro bench --check`` as a perf-smoke job that fails on a
>25% events/sec regression against the baseline in ``benchmarks/``.

Report schema (``schema_version`` 1)::

    {
      "schema_version": 1,
      "created": "2026-08-05T12:00:00",
      "python": "3.12.1",
      "platform": "Linux-...",
      "environment": {
        "hostname": "...", "cpu_model": "...", "cpu_count": N,
        "python": "3.12.1", "platform": "Linux-..."
      },
      "des": {
        "event_throughput": {"events": N, "seconds": s, "events_per_sec": r},
        "resource_contention": {...},
        "calendar_throughput": {...}    # event_throughput on the calendar core
      },
      "service": {
        "grids": N, "points": N, "claimed": N,
        "submits_per_sec": r, "claims_per_sec": r
      },
      "telemetry": {"adds": N, "seconds": s, "eventlog_adds_per_sec": r},
      "transport": {
        "payload_mib": 8.0,
        "staging_mb_per_s": {"kvfile": r, "redis": r, "dragon": r}
      },
      "experiments": {"fig3": {"seconds": s}, ...},
      "peak_rss_bytes": B
    }

Benchmarks are wall-clock measurements: absolute numbers move between
machines, so ``--check`` compares the stored ``environment`` fingerprint
(cpu_model, cpu_count) first and downgrades the regression gate to a
warning when the baseline came from a different machine (the committed
baseline is refreshed whenever the CI image or the engine changes
materially).
"""

from __future__ import annotations

import argparse
import datetime as _dt
import json
import os
import pathlib
import platform
import resource
import socket
import sys
import time
from typing import Any, Optional

#: Fail ``--check`` when events/sec drops below this fraction of baseline.
DEFAULT_REGRESSION_THRESHOLD = 0.25


# -- DES micro-benchmarks ---------------------------------------------------
def _ticker_workload(env) -> None:
    """The ``test_micro_substrates`` event-throughput workload.

    Tickers sleep with ``yield delay``, the wait the pattern loops use,
    so the gated events/sec row measures the path the experiments run.
    """

    def ticker(env):
        for _ in range(1000):
            yield 1.0

    for _ in range(10):
        env.process(ticker(env))


def _contention_workload(env) -> None:
    """The ``test_micro_substrates`` resource-contention workload."""
    from repro.des import Resource

    res = Resource(env, capacity=4)

    def user(env, res):
        for _ in range(50):
            with res.request() as req:
                yield req
                yield 0.1

    for _ in range(40):
        env.process(user(env, res))


def _measure_des(build, repeats: int, core: Optional[str] = None) -> dict[str, float]:
    """Best-of-``repeats`` wall time for one DES workload.

    The event count is taken once from a probed run (deterministic, so
    it is identical for every repeat); the timed runs are unprobed so
    the number reflects what experiments actually pay.
    """
    from repro.des import Environment
    from repro.des.probe import CountingProbe

    counter = CountingProbe()
    env = Environment(probe=counter, core=core)
    build(env)
    env.run()
    events = counter.processed

    best = float("inf")
    for _ in range(repeats):
        env = Environment(core=core)
        build(env)
        start = time.perf_counter()
        env.run()
        best = min(best, time.perf_counter() - start)
    return {
        "events": float(events),
        "seconds": best,
        "events_per_sec": events / best,
    }


def run_des_benchmarks(repeats: int = 5) -> dict[str, dict[str, float]]:
    """The DES micro-benchmarks as ``{name: {events, seconds, events_per_sec}}``.

    ``calendar_throughput`` is the ticker workload on the calendar-queue
    core, so the two event cores are tracked side by side.
    """
    return {
        "event_throughput": _measure_des(_ticker_workload, repeats),
        "resource_contention": _measure_des(_contention_workload, repeats),
        "calendar_throughput": _measure_des(_ticker_workload, repeats, core="calendar"),
    }


# -- telemetry micro-benchmark ----------------------------------------------
def run_eventlog_benchmark(adds: int = 200_000, repeats: int = 5) -> dict[str, float]:
    """Best-of-``repeats`` ``EventLog.add`` rate, in the simulated stores' call shape.

    Every simulated compute iteration and transport op appends one
    record, so this rate bounds how cheap an event can get. Reported
    beside the DES rows, never gated.
    """
    from repro.telemetry.events import EventKind, EventLog

    starts = [float(i) for i in range(adds)]
    best = float("inf")
    for _ in range(repeats):
        add = EventLog().add
        begin = time.perf_counter()
        for start in starts:
            add("sim", EventKind.WRITE, start, 0.5, 3, 1e6, "k")
        best = min(best, time.perf_counter() - begin)
    return {"adds": float(adds), "seconds": best, "eventlog_adds_per_sec": adds / best}


# -- real staging throughput -------------------------------------------------
def run_staging_benchmark(payload_mib: int = 8, repeats: int = 5) -> dict[str, Any]:
    """MiB/s of one ``stage_write`` + ``stage_read`` per real substrate.

    A ``payload_mib`` MiB float64 array through ``ServerManager`` +
    ``DataStore`` (servers in-process, kvfile under the temp directory),
    best of ``repeats`` after one warm-up pair; both directions count as
    moved bytes. The only real byte-moving in the report — shown in the
    delta table, never gated (it is as much the host's memory and
    loopback bandwidth as this code).
    """
    import tempfile

    import numpy as np

    from repro.transport.datastore import DataStore
    from repro.transport.server import ServerManager

    array = np.random.default_rng(0).random(payload_mib * (1 << 20) // 8)
    rates: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-staging-") as tmp:
        for backend, row in (("node-local", "kvfile"), ("redis", "redis"), ("dragon", "dragon")):
            config = {"backend": backend}
            if backend == "node-local":
                config["path"] = tmp
            with ServerManager(f"bench-{row}", config=config) as manager:
                with DataStore("bench", server_info=manager.get_server_info()) as store:
                    best = float("inf")
                    for i in range(repeats + 1):
                        begin = time.perf_counter()
                        store.stage_write("snap", array)
                        value = store.stage_read("snap")
                        if i:  # the first pair opens connections and faults pages in
                            best = min(best, time.perf_counter() - begin)
                    if not np.array_equal(value, array):
                        raise RuntimeError(f"{backend} read back a different array")
            rates[row] = 2 * payload_mib / best
    return {"payload_mib": float(payload_mib), "staging_mb_per_s": rates}


# -- sweep service throughput -----------------------------------------------
def _bench_point(x: float) -> float:
    """Trivial grid point for the service bench (must be importable)."""
    return float(x)


def run_service_benchmark(
    n_grids: int = 8, points_per_grid: int = 25
) -> dict[str, float]:
    """SUBMIT and CLAIM round-trip rates against a loopback sweep service.

    Tracks the control-plane ceiling of the durable multi-tenant
    service: how fast grids are admitted (SUBMIT includes the quota
    check, signature dedup, and the store write) and how fast workers
    can pull points (CLAIM includes lease bookkeeping). One persistent
    connection per phase, so the numbers measure dispatch + store cost,
    not TCP handshakes. Advisory in ``--check`` — the regression gate
    stays on the DES engine numbers.
    """
    import tempfile

    from repro.sweep.dist.service import ServiceClient, SweepService
    from repro.sweep.point import SweepPoint
    from repro.transport.redis_backend import MiniRedisConnection

    total_points = n_grids * points_per_grid
    with tempfile.TemporaryDirectory(prefix="repro-bench-service-") as tmp:
        service = SweepService(
            pathlib.Path(tmp) / "store.sqlite", host="127.0.0.1", port=0,
            lease_seconds=300.0,
        )
        service.start()
        try:
            client = ServiceClient(f"127.0.0.1:{service.port}")
            start = time.perf_counter()
            for g in range(n_grids):
                points = [
                    (
                        i,
                        SweepPoint(
                            func=_bench_point,
                            kwargs={"x": float(g * points_per_grid + i)},
                        ),
                    )
                    for i in range(points_per_grid)
                ]
                client.submit(f"bench-{g}", points, tenant="bench")
            submit_seconds = time.perf_counter() - start
            client.close()

            conn = MiniRedisConnection("127.0.0.1", service.port, timeout=10.0)
            claimed = 0
            start = time.perf_counter()
            try:
                while claimed < total_points:
                    reply = conn.command("CLAIM", "bench-worker")
                    if reply in (None, b"DRAINED") or str(reply) == "DRAINED":
                        break
                    claimed += 1
            finally:
                conn.close()
            claim_seconds = time.perf_counter() - start
        finally:
            service.stop()
    return {
        "grids": float(n_grids),
        "points": float(total_points),
        "claimed": float(claimed),
        "submits_per_sec": n_grids / submit_seconds if submit_seconds > 0 else 0.0,
        "claims_per_sec": claimed / claim_seconds if claim_seconds > 0 else 0.0,
    }


# -- experiment rounds ------------------------------------------------------
def run_experiment_rounds() -> dict[str, dict[str, float]]:
    """Wall seconds for one round of each paper experiment."""
    from repro.experiments import ALL_EXPERIMENTS

    timings: dict[str, dict[str, float]] = {}
    for name, module in ALL_EXPERIMENTS.items():
        start = time.perf_counter()
        module.run()
        timings[name] = {"seconds": time.perf_counter() - start}
    return timings


def peak_rss_bytes() -> int:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss * (1 if sys.platform == "darwin" else 1024)


def cpu_model() -> str:
    """Human CPU model name (``/proc/cpuinfo`` on Linux, else platform)."""
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.lower().startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine() or "unknown"


def environment_info() -> dict[str, Any]:
    """Where this bench ran: baselines are only comparable within one
    environment, so the report records enough to tell them apart."""
    return {
        "hostname": socket.gethostname(),
        "cpu_model": cpu_model(),
        "cpu_count": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


# -- report assembly --------------------------------------------------------
def collect(repeats: int = 5) -> dict[str, Any]:
    """Run the whole bench and assemble the report payload."""
    des = run_des_benchmarks(repeats=repeats)
    service = run_service_benchmark()
    telemetry = run_eventlog_benchmark(repeats=repeats)
    transport = run_staging_benchmark(repeats=repeats)
    experiments = run_experiment_rounds()
    return {
        "schema_version": 1,
        "created": _dt.datetime.now().isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "environment": environment_info(),
        "des": des,
        "service": service,
        "telemetry": telemetry,
        "transport": transport,
        "experiments": experiments,
        "peak_rss_bytes": peak_rss_bytes(),
    }


def report_path(out_dir: pathlib.Path, date: Optional[str] = None) -> pathlib.Path:
    """Next free ``BENCH_<date>[_N].json`` path under ``out_dir``.

    The suffix keeps same-day reports distinct, and ``_N`` sorts after
    the bare name lexicographically ('.' < '_'), so ``sorted()`` order
    is chronological within a day too.
    """
    date = date or _dt.date.today().isoformat()
    path = out_dir / f"BENCH_{date}.json"
    n = 2
    while path.exists():
        path = out_dir / f"BENCH_{date}_{n}.json"
        n += 1
    return path


def find_baseline(baseline_dir: pathlib.Path) -> Optional[pathlib.Path]:
    """Most recent committed ``BENCH_*.json`` (lexicographically greatest)."""
    candidates = sorted(baseline_dir.glob("BENCH_*.json"))
    return candidates[-1] if candidates else None


def write_report(payload: dict[str, Any], out_dir: pathlib.Path) -> pathlib.Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = report_path(out_dir)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


# -- comparison -------------------------------------------------------------
def _fmt_delta(current: float, baseline: float, higher_is_better: bool) -> str:
    if baseline <= 0:
        return "n/a"
    ratio = current / baseline
    sign = "+" if ratio >= 1 else ""
    arrow = ratio >= 1 if higher_is_better else ratio <= 1
    return f"{sign}{100.0 * (ratio - 1.0):.1f}% {'ok' if arrow else 'worse'}"


def delta_table(current: dict[str, Any], baseline: dict[str, Any]) -> str:
    """Human-readable comparison of two bench payloads."""
    rows: list[tuple[str, str, str, str]] = []
    for name, cur in current.get("des", {}).items():
        base = baseline.get("des", {}).get(name)
        if base is None:
            continue
        rows.append(
            (
                f"des.{name} (events/sec)",
                f"{base['events_per_sec']:,.0f}",
                f"{cur['events_per_sec']:,.0f}",
                _fmt_delta(cur["events_per_sec"], base["events_per_sec"], True),
            )
        )
    cur_service = current.get("service", {})
    base_service = baseline.get("service", {})
    for metric in ("submits_per_sec", "claims_per_sec"):
        if metric in cur_service and metric in base_service:
            rows.append(
                (
                    f"service.{metric}",
                    f"{base_service[metric]:,.0f}",
                    f"{cur_service[metric]:,.0f}",
                    _fmt_delta(cur_service[metric], base_service[metric], True),
                )
            )
    cur_adds = current.get("telemetry", {}).get("eventlog_adds_per_sec")
    base_adds = baseline.get("telemetry", {}).get("eventlog_adds_per_sec")
    if cur_adds and base_adds:
        rows.append(
            (
                "telemetry.eventlog_adds_per_sec",
                f"{base_adds:,.0f}",
                f"{cur_adds:,.0f}",
                _fmt_delta(cur_adds, base_adds, True),
            )
        )
    base_staging = baseline.get("transport", {}).get("staging_mb_per_s", {})
    for name, cur in current.get("transport", {}).get("staging_mb_per_s", {}).items():
        if base_staging.get(name):
            rows.append(
                (
                    f"transport.staging_mb_per_s.{name}",
                    f"{base_staging[name]:,.0f}",
                    f"{cur:,.0f}",
                    _fmt_delta(cur, base_staging[name], True),
                )
            )
    for name, cur in current.get("experiments", {}).items():
        base = baseline.get("experiments", {}).get(name)
        if base is None:
            continue
        rows.append(
            (
                f"{name} (s)",
                f"{base['seconds']:.2f}",
                f"{cur['seconds']:.2f}",
                _fmt_delta(cur["seconds"], base["seconds"], False),
            )
        )
    cur_rss = current.get("peak_rss_bytes", 0)
    base_rss = baseline.get("peak_rss_bytes", 0)
    if cur_rss and base_rss:
        rows.append(
            (
                "peak RSS (MB)",
                f"{base_rss / 1e6:.0f}",
                f"{cur_rss / 1e6:.0f}",
                _fmt_delta(cur_rss, base_rss, False),
            )
        )
    if not rows:
        return "(no comparable metrics in baseline)"
    headers = ("metric", "baseline", "current", "delta")
    widths = [
        max(len(headers[i]), *(len(r[i]) for r in rows)) for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(w) for h, w in zip(headers, widths)),
        "  ".join("-" * w for w in widths),
    ]
    lines += ["  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows]
    return "\n".join(lines)


#: Environment fields that must match for wall-clock numbers to be comparable.
FINGERPRINT_FIELDS = ("cpu_model", "cpu_count")


def fingerprint_mismatches(
    current: dict[str, Any], baseline: dict[str, Any]
) -> list[str]:
    """Why the baseline's machine differs from this one (empty = same).

    Wall-clock baselines only gate runs from the same hardware; a report
    predating the ``environment`` block counts as mismatched because its
    provenance is unknowable.
    """
    cur_env = current.get("environment") or {}
    base_env = baseline.get("environment")
    if base_env is None:
        return ["baseline has no environment fingerprint (pre-schema report)"]
    return [
        f"{field}: baseline {base_env.get(field)!r} vs current {cur_env.get(field)!r}"
        for field in FINGERPRINT_FIELDS
        if base_env.get(field) != cur_env.get(field)
    ]


def check_regression(
    current: dict[str, Any],
    baseline: dict[str, Any],
    threshold: float = DEFAULT_REGRESSION_THRESHOLD,
) -> list[str]:
    """Events/sec regressions beyond ``threshold`` (empty = pass).

    Only the DES throughput numbers gate: experiment wall times include
    process startup and numpy noise, so they are reported but advisory.
    """
    failures = []
    for name, cur in current.get("des", {}).items():
        base = baseline.get("des", {}).get(name)
        if base is None:
            continue
        floor = (1.0 - threshold) * base["events_per_sec"]
        if cur["events_per_sec"] < floor:
            failures.append(
                f"des.{name}: {cur['events_per_sec']:,.0f} events/sec is below "
                f"{floor:,.0f} ({(1.0 - threshold) * 100:.0f}% of baseline "
                f"{base['events_per_sec']:,.0f})"
            )
    return failures


# -- CLI --------------------------------------------------------------------
def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--repeats",
        type=int,
        default=5,
        metavar="N",
        help="DES micro-bench repeats (best-of-N wall time)",
    )
    parser.add_argument(
        "--out-dir",
        default="benchmarks",
        metavar="DIR",
        help="where BENCH_<date>.json is written",
    )
    parser.add_argument(
        "--baseline-dir",
        default="benchmarks",
        metavar="DIR",
        help="where the committed baseline BENCH_*.json files live",
    )
    parser.add_argument(
        "--no-write",
        action="store_true",
        help="print the report and delta table without writing a file",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero on a DES events/sec regression beyond --threshold",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=DEFAULT_REGRESSION_THRESHOLD,
        metavar="FRACTION",
        help="allowed events/sec regression fraction for --check (default 0.25)",
    )


def cmd_bench(args: argparse.Namespace) -> int:
    baseline_dir = pathlib.Path(args.baseline_dir)
    baseline_path = find_baseline(baseline_dir)
    payload = collect(repeats=args.repeats)

    for name, numbers in payload["des"].items():
        print(
            f"des.{name}: {numbers['events_per_sec']:,.0f} events/sec "
            f"({numbers['events']:.0f} events in "
            f"{numbers['seconds'] * 1e3:.1f} ms)"
        )
    service = payload.get("service", {})
    if service:
        print(
            f"service: {service['submits_per_sec']:,.0f} submits/sec, "
            f"{service['claims_per_sec']:,.0f} claims/sec "
            f"({service['grids']:.0f} grids x "
            f"{service['points'] / max(service['grids'], 1):.0f} points)"
        )
    telemetry = payload.get("telemetry", {})
    if telemetry:
        print(
            f"telemetry.eventlog_adds_per_sec: "
            f"{telemetry['eventlog_adds_per_sec']:,.0f} ({telemetry['adds']:.0f} adds)"
        )
    transport = payload.get("transport", {})
    for name, rate in transport.get("staging_mb_per_s", {}).items():
        print(
            f"transport.staging_mb_per_s.{name}: {rate:,.0f} MiB/s "
            f"({transport['payload_mib']:.0f} MiB written and read back)"
        )
    for name, numbers in payload["experiments"].items():
        print(f"{name}: {numbers['seconds']:.2f} s")
    print(f"peak RSS: {payload['peak_rss_bytes'] / 1e6:.0f} MB")

    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())
        print(f"\ndelta vs {baseline_path}:")
        print(delta_table(payload, baseline))
    else:
        baseline = None
        print(f"\nno baseline BENCH_*.json in {baseline_dir} (first run?)")

    if not args.no_write:
        path = write_report(payload, pathlib.Path(args.out_dir))
        print(f"\nreport written to {path}")

    if args.check:
        if baseline is None:
            print("--check: no baseline to compare against", file=sys.stderr)
            return 1
        mismatches = fingerprint_mismatches(payload, baseline)
        failures = check_regression(payload, baseline, args.threshold)
        if mismatches:
            # Foreign baseline: wall-clock deltas are machine noise, not
            # regressions. Report, but do not gate.
            for mismatch in mismatches:
                print(f"bench environment mismatch: {mismatch}", file=sys.stderr)
            for failure in failures:
                print(f"PERF WARNING (foreign baseline): {failure}", file=sys.stderr)
            print(
                "perf check skipped: baseline recorded on different hardware",
                file=sys.stderr,
            )
            return 0
        for failure in failures:
            print(f"PERF REGRESSION: {failure}", file=sys.stderr)
        if failures:
            return 1
        print("perf check passed")
    return 0
