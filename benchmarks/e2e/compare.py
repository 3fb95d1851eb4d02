#!/usr/bin/env python3
"""Compare result files of ``run.py``: medians, quartiles and a verdict.

One set of files (positional) answers "is this benchmark steady here?":
per workload and end-to-end metric it prints the quartiles and the
spread (interquartile distance over the median) against the bound in
``BENCHMARK.json``. Two sets answer "did the change make it worse?"::

    python3 benchmarks/e2e/compare.py --base parent/*.json --new change/*.json

Verdicts (choosing-metrics, section 6):

``worse``       the new median is worse than the base median by more than the bound;
``unresolved``  the run-to-run spread of either set is wider than the bound
                (unless every new run reads better than every base run);
``ok``          otherwise.

``failed_share`` (operations failed, refused or wrong over operations
attempted) has the bound 0 absolute: a run of the new set (or of the one
set) in which any operation failed makes its row ``worse``, whatever the
base did, and so no gain counts.

Only untraced full-scale runs are compared; counts and digests that must
repeat exactly are checked across every file given. Exit status 1 when
any row is ``worse`` or ``unresolved`` or an exact count differs.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from e2elib import stats  # noqa: E402

#: Bound for the workload-native metrics (submit_ms_p50, write_mb_per_s, ...),
#: which the driver does not see: the same 20 % as ``wall_s``.
WORKLOAD_METRIC_BOUND = 0.20
#: Where a workload's own spread supports a tighter gate than the one
#: bound per metric that BENCHMARK.json can hold: ISSUE 11's 5 % on the
#: fig6 row (its rounds spread by 1-3 %) and its 10 % on peak RSS
#: wherever the allocator's policy is not part of the workload (0.1-2 %).
TIGHTER_BOUNDS = {
    ("p2_incast_128", "wall_s"): 0.05,
    ("p2_incast_128", "peak_rss_mb"): 0.10,
    ("p1_sweep_parallel", "peak_rss_mb"): 0.10,
    ("service_roundtrip", "peak_rss_mb"): 0.10,
}


def load_runs(paths: list[Path], allow_smoke: bool = False) -> list[dict]:
    runs = []
    for path in paths:
        doc = json.loads(Path(path).read_text())
        if doc.get("smoke") and not allow_smoke:
            raise SystemExit(f"{path}: a --smoke result is never a baseline")
        runs += doc["runs"]
    return runs


def collect(runs: list[dict], contract: dict) -> dict[tuple[str, str], dict]:
    """(workload, metric) -> {"values", "unit", "better", "bound"} from untraced runs."""
    declared = {m["name"]: m for m in contract["end_to_end"]}
    table: dict[tuple[str, str], dict] = {}
    for run in runs:
        if run["trace"]:
            continue
        rows = [
            (name, m["value"], m["unit"], declared[name]["better"], declared[name]["bound"])
            for name, m in run["metrics"].items()
        ] + [
            (name, m["value"], m["unit"], m["better"], WORKLOAD_METRIC_BOUND)
            for name, m in run.get("workload_metrics", {}).items()
            if m.get("gated", True)
        ]
        for name, value, unit, better, bound in rows:
            key = (run["workload"], name)
            row = table.setdefault(key, {
                "values": [], "unit": unit, "better": better,
                "bound": min(bound, TIGHTER_BOUNDS.get(key, bound)),
            })
            row["values"].append(value)
    return table


def failed_shares(runs: list[dict]) -> dict[str, list[float]]:
    """workload -> ``failed_share`` of each of its untraced runs."""
    table: dict[str, list[float]] = {}
    for run in runs:
        if not run["trace"]:
            table.setdefault(run["workload"], []).append(run["failed_share"])
    return table


def _failed_share_rows(new: dict[str, list[float]], base: dict[str, list[float]]) -> int:
    """Print one ``failed_share`` row per workload; returns 1 if any is ``worse``."""
    status = 0
    for workload in sorted(set(new) | set(base)):
        worst_new, worst_base = max(new.get(workload, [0.0])), max(base.get(workload, [0.0]))
        word = "worse" if worst_new > 0.0 else "ok"
        status |= word != "ok"
        was = f"base max {_fmt(worst_base)}, " if base else ""
        print(f"{workload:<20}{'failed_share':<26}{'ratio':<8}{was}max {_fmt(worst_new)} "
              f"over {len(new.get(workload, []))} runs, bound 0 absolute  {word}")
    return status


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    if max(stats.spread(base), stats.spread(new)) > bound:
        all_better = max(sign * v for v in new) < min(sign * v for v in base)
        return "ok" if all_better else "unresolved"
    base_median, new_median = stats.median(base), stats.median(new)
    worse_by = sign * (new_median - base_median) / abs(base_median)
    return "worse" if worse_by > bound else "ok"


def steadiness(values: list[float], bound: float) -> str:
    return "ok" if stats.spread(values) <= bound else "unresolved"


def exact_count_mismatches(runs: list[dict]) -> list[str]:
    """Runs of one (workload, trace, seed, scale) must agree on every exact count."""
    seen: dict[tuple, dict] = {}
    problems = []
    for run in runs:
        key = (run["workload"], run["trace"], run["seed"], run["smoke"])
        counts = run.get("exact_counts", {})
        first = seen.setdefault(key, counts)
        for name in sorted(set(first) | set(counts)):
            if first.get(name) != counts.get(name):
                problems.append(
                    f"{key[0]} trace={key[1]} seed={key[2]}: {name} "
                    f"{first.get(name)!r} != {counts.get(name)!r}"
                )
    return problems


def _fmt(value: float) -> str:
    return f"{value:.5g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="*", type=Path, help="one set of result files")
    parser.add_argument("--base", nargs="+", type=Path, default=[])
    parser.add_argument("--new", nargs="+", type=Path, default=[])
    parser.add_argument("--contract", type=Path, default=HERE.parents[1] / "BENCHMARK.json")
    parser.add_argument("--allow-smoke", action="store_true", help="for the harness's tests")
    args = parser.parse_args(argv)
    if bool(args.base) != bool(args.new) or bool(args.files) == bool(args.base):
        parser.error("give either positional files (one set) or both --base and --new")
    contract = json.loads(args.contract.read_text())

    status = 0
    if args.files:
        runs = load_runs(args.files, args.allow_smoke)
        print(f"{'workload':<20}{'metric':<26}{'unit':<8}{'n':>3}{'q1':>11}{'median':>11}"
              f"{'q3':>11}{'spread':>9}{'bound':>7}  verdict")
        for (workload, name), row in sorted(collect(runs, contract).items()):
            q1, q2, q3 = stats.quartiles(row["values"])
            word = steadiness(row["values"], row["bound"])
            status |= word != "ok"
            print(f"{workload:<20}{name:<26}{row['unit']:<8}{len(row['values']):>3}"
                  f"{_fmt(q1):>11}{_fmt(q2):>11}{_fmt(q3):>11}"
                  f"{stats.spread(row['values']):>9.2%}{row['bound']:>7.0%}  {word}")
        status |= _failed_share_rows(failed_shares(runs), {})
    else:
        base_runs = load_runs(args.base, args.allow_smoke)
        new_runs = load_runs(args.new, args.allow_smoke)
        runs = base_runs + new_runs
        base, new = collect(base_runs, contract), collect(new_runs, contract)
        print(f"{'workload':<20}{'metric':<26}{'unit':<8}{'base q1/median/q3':>34}"
              f"{'new q1/median/q3':>34}{'change':>9}{'bound':>7}  verdict")
        for key in sorted(set(base) | set(new)):
            if key not in base or key not in new:
                print(f"{key[0]:<20}{key[1]:<26}only in {'base' if key in base else 'new'}")
                status = 1
                continue
            b, n = base[key], new[key]
            word = verdict(b["values"], n["values"], b["better"], b["bound"])
            status |= word != "ok"
            change = stats.median(n["values"]) / stats.median(b["values"]) - 1.0
            quart = ["/".join(_fmt(q) for q in stats.quartiles(r["values"])) for r in (b, n)]
            print(f"{key[0]:<20}{key[1]:<26}{b['unit']:<8}{quart[0]:>34}{quart[1]:>34}"
                  f"{change:>+9.2%}{b['bound']:>7.0%}  {word}")
        status |= _failed_share_rows(failed_shares(new_runs), failed_shares(base_runs))
    problems = exact_count_mismatches(runs)
    for problem in problems:
        print(f"exact count differs: {problem}")
    if not problems:
        print("exact counts and digests: identical across runs of the same workload and seed")
    return 1 if status or problems else 0


if __name__ == "__main__":
    sys.exit(main())
