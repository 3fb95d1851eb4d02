"""expected.json is a real gate: one flipped digit fails the run."""

from __future__ import annotations

import json

from conftest import E2E, run_benchmark

def args(seed: int) -> tuple[str, ...]:
    return ("--workload", "p2_incast_128", "--seed", str(seed), "--seconds", "0.2",
            "--trace", "0", "--smoke")


def test_a_corrupted_expected_json_yields_a_nonzero_exit(tmp_path):
    doc = json.loads((E2E / "expected.json").read_text())
    values = doc["smoke"]["p2_incast_128"]["values"]
    text = repr(values[5])
    digit = next(i for i, ch in enumerate(text) if ch.isdigit() and ch != "9")
    values[5] = float(text[:digit] + str(int(text[digit]) + 1) + text[digit + 1:])
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(doc))
    done = run_benchmark(*args(0), "--out", str(tmp_path), "--expected", str(corrupted))
    assert done.returncode == 1
    line = json.loads(done.stdout.splitlines()[-1])
    assert line["correct"] is False and line["failed"] >= 1
    assert "differ from expected.json" in done.stdout


def test_the_committed_expected_json_passes_and_other_seeds_skip_it(tmp_path):
    assert run_benchmark(*args(0), "--out", str(tmp_path)).returncode == 0
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    done = run_benchmark(*args(7), "--out", str(tmp_path), "--expected", str(empty))
    assert done.returncode == 0, done.stdout + done.stderr
