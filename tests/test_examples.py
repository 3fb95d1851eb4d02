"""Smoke tests: every example script runs end-to-end as a subprocess.

Examples are the quickstart surface of the repository; a broken one is a
broken deliverable, so each is executed exactly as a user would run it
(module search path included, real servers and sockets where the script
uses them).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

#: (script, argv, substring expected in stdout)
EXAMPLES = [
    ("quickstart.py", ["dragon"], "quickstart OK"),
    ("custom_kernel.py", [], "custom kernel OK"),
    ("workflow_export.py", [], "workflow export OK"),
    ("streaming_pipeline.py", [], "streamed 30 steps"),
    (
        "online_training_one_to_one.py",
        ["node-local"],
        "snapshots written/read",
    ),
    ("ensemble_many_to_one.py", ["node-local", "2"], "runtime per training iteration"),
    ("aurora_scale_simulation.py", ["1.2", "8"], "recommended: "),
]

#: Real byte-moving across three backends, the slowest example: its own test.
SLOW_EXAMPLE = "backend_comparison.py"


def test_examples_directory_complete():
    scripts = {p.name for p in EXAMPLES_DIR.glob("*.py")}
    covered = {name for name, _, _ in EXAMPLES} | {SLOW_EXAMPLE}
    assert scripts == covered, f"examples drifted: {scripts ^ covered}"


@pytest.mark.parametrize("script,argv,expected", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_example_runs(script, argv, expected):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / script), *argv],
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert expected in result.stdout, result.stdout


def test_backend_comparison_runs():
    """Separate: real byte-moving across three backends (the slowest one)."""
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / SLOW_EXAMPLE)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "stage_write throughput" in result.stdout
    assert "stage_read throughput" in result.stdout
