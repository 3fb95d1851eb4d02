#!/usr/bin/env python3
"""The repository's end-to-end benchmark (contract: ``BENCHMARK.json``).

One workload, one process::

    python3 benchmarks/e2e/run.py --workload p2_incast_128 --seed 0 --seconds 15 --trace 0

prints a table and, as the last line of standard output, one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding every
end-to-end metric (``--trace 0``) or every per-layer metric
(``--trace 1``). Without ``--workload`` it runs all four workloads
untraced and then traced, each in a fresh child process, and writes one
combined result file. See ``README.md`` beside this file.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # set-up time starts before the imports

import argparse
import dataclasses
import datetime
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from typing import NoReturn

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = {
    "p2_incast_128": ("e2elib.sim_workloads", "P2Incast"),
    "p1_sweep_parallel": ("e2elib.sim_workloads", "P1Sweep"),
    "service_roundtrip": ("e2elib.service_workload", "ServiceRoundtrip"),
    "real_staging": ("e2elib.staging_workload", "RealStaging"),
}


def _fail(message: str) -> NoReturn:
    print(f"benchmarks/e2e/run.py: {message}", file=sys.stderr)
    raise SystemExit(2)


def load_contract() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        _fail(f"{path} is missing")
    return json.loads(path.read_text())


def parse_args(contract: dict) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(contract["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the harness's own tests; never a baseline")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for result files, traces and scratch space")
    parser.add_argument("--expected", type=Path, default=HERE / "expected.json")
    parser.add_argument("--write-expected", action="store_true",
                        help="store this run's seed-0 simulated statistics instead of checking them")
    return parser.parse_args()


def _on_sigterm(signum, frame):
    raise KeyboardInterrupt  # unwind through every finally: children die with us


# -- one workload in this process -------------------------------------------
def load_workload(name: str):
    import importlib

    module, cls_name = WORKLOADS[name]
    return getattr(importlib.import_module(module), cls_name)


def run_one(args: argparse.Namespace, contract: dict) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing")
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # The calibration comes first (standard library only), so that the
    # imports of numpy and the program are a speed segment like any other.
    from e2elib.speed import SpeedClock

    boot_s = time.perf_counter() - _PROCESS_START
    import_clock = SpeedClock()
    import_clock.start()
    from e2elib import harness, hostinfo, spans

    cls = load_workload(args.workload)
    import_s = boot_s / import_clock.lap() + import_clock.norm_s

    expected_doc = {}
    if args.seed == 0 and not args.write_expected:
        expected_doc = json.loads(args.expected.read_text())
    workdir = args.out / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tally = harness.Tally()

    def context(name: str, smoke: bool) -> harness.Context:
        mode = "smoke" if smoke else "full"
        return harness.Context(
            root=ROOT, workdir=workdir / name, seed=args.seed, smoke=smoke,
            nproc=hostinfo.nproc(), expected=expected_doc.get(mode, {}).get(name),
            tally=tally, clock=SpeedClock(load_workload(name).speed_unit),
        )

    mode = "smoke" if args.smoke else "full"
    scale = cls.SMOKE if args.smoke else cls.FULL
    load_start = hostinfo.load_average()
    started = datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")
    try:
        ctx = context(args.workload, args.smoke)
        if args.trace:
            outcome = harness.run_traced(cls, ctx, scale)
            # Layers off this workload's path are measured too, by the other
            # workloads' traced pass at smoke scale, so that every per-layer
            # number of every run is a measurement and none a placeholder.
            # (real_staging comes last: it pins this process's malloc policy.)
            borrowed: dict[str, float] = {}
            for other in WORKLOADS:
                if other != args.workload:
                    other_cls = load_workload(other)
                    lite = harness.run_traced(
                        other_cls, context(other, True),
                        dataclasses.replace(other_cls.SMOKE, traced_compare_rounds=0))
                    for name, value in lite["layers"].items():
                        borrowed.setdefault(name, value)
        else:
            outcome = harness.run_untraced(cls, ctx, scale, args.seconds, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        declared = {m["name"]: m["unit"] for m in contract["per_layer"]}
        own = outcome.pop("layers")
        values = {**borrowed, **own}
        if set(values) != set(declared):
            _fail("per-layer metrics differ from BENCHMARK.json: "
                  f"{sorted(set(values) ^ set(declared))}")
        recorder = outcome.pop("spans")
        trace_path = args.out / f"trace-{args.workload}.json"
        recorder.write(trace_path, workload=args.workload, seed=args.seed, smoke=args.smoke)
        outcome["trace_file"] = trace_path.name
        outcome["span_summary"] = spans.by_name(recorder.spans)
        outcome["on_path"] = sorted(own)
    else:
        declared = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        values = outcome.pop("metrics")
        if set(values) != set(declared):
            _fail(f"end-to-end metrics {sorted(values)} != declared {sorted(declared)}")
        if args.write_expected:
            write_expected(args, mode, outcome["expected_block"])
        del outcome["expected_block"]
    metrics = {
        name: {"value": float(values[name]), "unit": declared[name]} for name in declared
    }

    run = {
        "workload": args.workload, "trace": args.trace, "seed": args.seed,
        "seconds": args.seconds, "smoke": args.smoke,
        "started": started, "load_1min_start": load_start,
        "load_1min_end": hostinfo.load_average(),
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "failed_share": tally.failed / max(1, tally.attempted),
        "failures": tally.messages,
        "metrics": metrics,
        **outcome,
    }
    result_path = args.out / f"run-{mode}-{args.workload}-trace{args.trace}-seed{args.seed}.json"
    result_path.write_text(json.dumps(
        {"schema": 1, "smoke": args.smoke, "environment": hostinfo.environment(ROOT),
         "runs": [run]}, indent=1) + "\n")

    print_run(run)
    print(json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
    }))
    return 0 if run["correct"] else 1


def write_expected(args: argparse.Namespace, mode: str, block) -> None:
    if block is None or args.seed != 0:
        _fail("--write-expected needs an untraced seed-0 run of a simulated workload")
    doc = json.loads(args.expected.read_text()) if args.expected.is_file() else {}
    doc.setdefault(mode, {})[args.workload] = block
    args.expected.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def print_run(run: dict) -> None:
    from e2elib.harness import MODEL_NOTE

    label = "SMOKE (not a baseline) " if run["smoke"] else ""
    kind = "per-layer (traced)" if run["trace"] else "end-to-end (tracing off)"
    print(f"{label}{run['workload']} seed={run['seed']} rounds={run['rounds']}: {kind}")
    samples = run.get("samples", {})
    on_path = run.get("on_path")
    for name, metric in run["metrics"].items():
        note = f"  (n={samples[name]})" if name in samples else ""
        if on_path is not None and name not in on_path:
            note = "  (off path: another workload's smoke-scale pass)"
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}{note}")
    for name, metric in run.get("workload_metrics", {}).items():
        few = "" if metric.get("supported", True) else ", too few for this percentile"
        free = "" if metric.get("gated", True) else ", not gated"
        print(f"  {name:<52} {metric['value']:>16.6g} {metric['unit']}  "
              f"(n={metric['samples']}{few}{free})")
    print(f"  {'failed_share':<52} {run['failed_share']:>16.6g} ratio  "
          f"({run['failed']} of {run['attempted']})")
    for message in run["failures"]:
        print(f"  FAILED: {message}")
    print(MODEL_NOTE)


# -- every workload, each in a child ------------------------------------------
def run_all(args: argparse.Namespace, contract: dict) -> int:
    args.out.mkdir(parents=True, exist_ok=True)
    mode = "smoke" if args.smoke else "full"
    combined = {"schema": 1, "smoke": args.smoke, "environment": None, "runs": []}
    status = 0
    for trace in (0, 1):  # every end-to-end number first, then the traced pass
        for workload in (w["name"] for w in contract["workloads"]):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace), "--out", str(args.out),
                "--expected", str(args.expected),
            ] + (["--smoke"] if args.smoke else [])
            child = subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            try:
                out, _ = child.communicate()
            except BaseException:
                child.terminate()  # the child unwinds its own children
                child.wait()
                raise
            sys.stdout.write("\n".join(out.splitlines()[:-1]) + "\n")
            status = status or child.returncode
            path = args.out / f"run-{mode}-{workload}-trace{trace}-seed{args.seed}.json"
            if child.returncode in (0, 1) and path.is_file():
                doc = json.loads(path.read_text())
                combined["environment"] = combined["environment"] or doc["environment"]
                combined["runs"] += doc["runs"]
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime("%Y%m%dT%H%M%SZ")
    path = args.out / f"result-{mode}-{stamp}.json"
    path.write_text(json.dumps(combined, indent=1) + "\n")
    print(f"result file: {path}")
    return status


def main() -> int:
    contract = load_contract()
    args = parse_args(contract)
    signal.signal(signal.SIGTERM, _on_sigterm)
    if args.write_expected and (args.workload is None or args.trace):
        _fail("--write-expected goes with --workload <simulated workload> --trace 0")
    if args.workload is None:
        return run_all(args, contract)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
