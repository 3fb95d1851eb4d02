"""Byte parity of every Fig 3 and Fig 6 cell, pinned beyond the benchmark.

Each of the 56 Fig 3 and 42 Fig 6 cells is run through its driver's
``sweep_point`` with the pattern runner wrapped, and reduced to the cell
value, the run counters, the makespan and the SHA-256 of
``EventLog.to_jsonl()``. ``golden/cell_digests.json`` was recorded on the
commit *before* lock-step ranks were grouped into one process, so
``test_lockstep.py`` fails if grouping moves one row of one cell.

The committed golden uses short runs (serialising the rows is what costs);
to compare two checkouts at the drivers' own iteration counts, print both
and diff::

    PYTHONPATH=<tree>/src python tests/workloads/cell_digests.py \
        --fig3-iterations 2500 --fig6-iterations 1000 > <tree>.json

Regenerate (only when *intentionally* changing the patterns or models)::

    PYTHONPATH=src python tests/workloads/cell_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from contextlib import contextmanager

from repro.experiments import fig3_throughput, fig6_scaling
from repro.experiments import common as exp_common
from repro.experiments.common import (
    PATTERN1_BACKENDS,
    PATTERN2_BACKENDS,
    SIZE_SWEEP_BYTES,
)

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "cell_digests.json"

FIG3_ITERATIONS = 120
FIG6_ITERATIONS = 20


@contextmanager
def _capturing(module, attr: str, sink: list):
    """Keep every PatternResult the driver's runner returns."""
    original = getattr(module, attr)

    def runner(*args, **kwargs):
        result = original(*args, **kwargs)
        sink.append(result)
        return result

    setattr(module, attr, runner)
    try:
        yield
    finally:
        setattr(module, attr, original)


def digest(value, result) -> dict:
    return {
        "value": repr(value),
        "makespan": repr(result.makespan),
        "counters": [
            result.sim_iterations,
            result.train_iterations,
            result.snapshots_written,
            result.snapshots_read,
        ],
        "records": len(result.log),
        "eventlog_sha256": hashlib.sha256(result.log.to_jsonl().encode()).hexdigest(),
    }


def cells(fig3_iterations: int = FIG3_ITERATIONS, fig6_iterations: int = FIG6_ITERATIONS) -> dict:
    """name -> (driver module, runner owner, runner attr, sweep_point kwargs)."""
    out = {}
    for scale in fig3_throughput.SCALES:
        for backend in PATTERN1_BACKENDS:
            for nbytes in SIZE_SWEEP_BYTES:
                out[f"fig3/{scale}/{backend}/{nbytes:g}"] = (
                    fig3_throughput, exp_common, "run_one_to_one",
                    {"backend": backend, "nbytes": nbytes, "scale": scale,
                     "iterations": fig3_iterations},
                )
    for scale in fig6_scaling.SCALES:
        for backend in PATTERN2_BACKENDS:
            for nbytes in SIZE_SWEEP_BYTES:
                out[f"fig6/{scale}/{backend}/{nbytes:g}"] = (
                    fig6_scaling, fig6_scaling, "run_many_to_one",
                    {"backend": backend, "scale": scale, "nbytes": nbytes,
                     "iterations": fig6_iterations},
                )
    return out


def run_cell(driver, owner, attr: str, kwargs: dict) -> tuple:
    """The cell's value and the PatternResult behind it."""
    sink: list = []
    with _capturing(owner, attr, sink):
        value = driver.sweep_point(**kwargs)
    return value, sink[0]


def record_cell(driver, owner, attr: str, kwargs: dict) -> dict:
    return digest(*run_cell(driver, owner, attr, kwargs))


def record_all(**iterations) -> dict[str, dict]:
    return {name: record_cell(*spec) for name, spec in cells(**iterations).items()}


def main() -> None:  # pragma: no cover - regeneration entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--write", action="store_true", help="rewrite the golden file")
    parser.add_argument("--fig3-iterations", type=int, default=FIG3_ITERATIONS)
    parser.add_argument("--fig6-iterations", type=int, default=FIG6_ITERATIONS)
    args = parser.parse_args()
    recorded = record_all(
        fig3_iterations=args.fig3_iterations, fig6_iterations=args.fig6_iterations
    )
    text = json.dumps({"format": 1, "cells": recorded}, indent=1, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH} ({len(recorded)} cells)")
    else:
        print(text, end="")


if __name__ == "__main__":  # pragma: no cover
    main()
