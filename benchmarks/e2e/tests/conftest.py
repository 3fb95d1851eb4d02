"""Fixtures for the harness's own tests (``pytest benchmarks/e2e/tests``).

Outside tier-1's ``testpaths`` on purpose: these start the sweep service,
the staging servers and a process pool.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]
sys.path.insert(0, str(E2E))


def run_benchmark(*args: str, cwd: Path = ROOT, script: Path = E2E / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args], cwd=cwd, capture_output=True,
        text=True, timeout=170,
    )


@pytest.fixture(scope="session")
def contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="session")
def smoke_result(tmp_path_factory) -> dict:
    """One ``--smoke`` run of everything: four workloads, untraced then traced."""
    out = tmp_path_factory.mktemp("e2e-out")
    done = run_benchmark("--smoke", "--seconds", "0.2", "--out", str(out))
    assert done.returncode == 0, done.stdout + done.stderr
    (result,) = out.glob("result-smoke-*.json")
    doc = json.loads(result.read_text())
    doc["out_dir"] = out
    doc["stdout"] = done.stdout
    return doc
