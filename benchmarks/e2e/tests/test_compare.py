"""compare.py verdicts on synthetic result files."""

from __future__ import annotations

import json

import compare
import pytest


def result_file(path, wall_values, smoke=False, rate=None, counts=None, failed=0):
    runs = []
    for seed, wall in enumerate(wall_values):
        run = {
            "workload": "w", "trace": 0, "seed": seed, "smoke": smoke,
            # ``failed`` operations of 1000, in the first run only
            "failed_share": failed / 1000 if seed == 0 else 0.0,
            "metrics": {"wall_s": {"value": wall, "unit": "s"},
                        "setup_s": {"value": 1.0, "unit": "s"}},
            "exact_counts": counts or {"digest": "abc"},
        }
        if rate is not None:
            run["workload_metrics"] = {
                "rate_per_s": {"value": rate, "unit": "1/s", "better": "higher", "samples": 100},
                "rate_per_s.other_policy": {"value": rate * (1 + seed), "unit": "1/s",
                                            "better": "higher", "samples": 10, "gated": False},
            }
        runs.append(run)
    path.write_text(json.dumps({"schema": 1, "smoke": smoke, "environment": {}, "runs": runs}))
    return path


@pytest.fixture
def contract_file(tmp_path):
    path = tmp_path / "BENCHMARK.json"
    path.write_text(json.dumps({"end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.10},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]}))
    return path


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95]


def test_verdicts():
    v = compare.verdict
    assert v(STEADY, [x * 1.05 for x in STEADY], "lower", 0.10) == "ok"
    assert v(STEADY, [x * 1.15 for x in STEADY], "lower", 0.10) == "worse"
    assert v(STEADY, [x * 0.5 for x in STEADY], "lower", 0.10) == "ok"
    noisy = [8.0, 12.0, 9.0, 11.0, 10.0]
    assert v(noisy, STEADY, "lower", 0.10) == "unresolved"  # spread wider than bound
    assert v(noisy, [x * 0.5 for x in noisy], "lower", 0.10) == "ok"  # yet every run better
    # higher is better: a drop is what is worse
    assert v(STEADY, [x * 0.85 for x in STEADY], "higher", 0.10) == "worse"
    assert v(STEADY, [x * 1.5 for x in STEADY], "higher", 0.10) == "ok"
    assert v([10.0], [10.5], "lower", 0.10) == "ok"  # one run a side: medians only
    assert compare.steadiness(STEADY, 0.10) == "ok"
    assert compare.steadiness(noisy, 0.10) == "unresolved"


def test_two_sets_through_main(tmp_path, contract_file, capsys):
    base = result_file(tmp_path / "base.json", STEADY, rate=100.0)
    same = result_file(tmp_path / "same.json", [x * 1.02 for x in STEADY], rate=99.0)
    slow = result_file(tmp_path / "slow.json", [x * 1.30 for x in STEADY], rate=70.0)
    common = ["--contract", str(contract_file)]
    assert compare.main(["--base", str(base), "--new", str(same), *common]) == 0
    assert "worse" not in capsys.readouterr().out
    assert compare.main(["--base", str(base), "--new", str(slow), *common]) == 1
    out = capsys.readouterr().out
    rows = {line.split()[1]: line.split()[-1] for line in out.splitlines() if line.startswith("w ")}
    assert rows == {"wall_s": "worse", "setup_s": "ok", "rate_per_s": "worse",
                    "failed_share": "ok"}  # and the ungated row is left out


def test_a_failed_operation_is_worse_whatever_the_timings_say(tmp_path, contract_file, capsys):
    base = result_file(tmp_path / "base.json", STEADY)
    faster = result_file(tmp_path / "new.json", [x * 0.5 for x in STEADY], failed=1)
    common = ["--contract", str(contract_file)]
    assert compare.main(["--base", str(base), "--new", str(faster), *common]) == 1
    out = capsys.readouterr().out
    rows = {line.split()[1]: line.split()[-1] for line in out.splitlines() if line.startswith("w ")}
    assert rows == {"wall_s": "ok", "setup_s": "ok", "failed_share": "worse"}
    # One set: the same row. A failure in the base alone does not count against the new set.
    assert compare.main([str(faster), *common]) == 1
    clean = result_file(tmp_path / "clean.json", [x * 0.5 for x in STEADY])
    assert compare.main(["--base", str(faster), "--new", str(clean), *common]) == 0


def test_a_workload_can_be_gated_tighter_than_the_contract(tmp_path, contract_file, monkeypatch):
    monkeypatch.setitem(compare.TIGHTER_BOUNDS, ("w", "wall_s"), 0.05)
    base = result_file(tmp_path / "base.json", STEADY)
    drift = result_file(tmp_path / "drift.json", [x * 1.07 for x in STEADY])
    assert compare.main(["--base", str(base), "--new", str(drift),
                         "--contract", str(contract_file)]) == 1


def test_one_set_reports_spread_and_exact_counts(tmp_path, contract_file, capsys):
    steady = result_file(tmp_path / "a.json", STEADY)
    assert compare.main([str(steady), "--contract", str(contract_file)]) == 0
    assert "identical" in capsys.readouterr().out
    noisy = result_file(tmp_path / "b.json", [8.0, 12.0, 9.0, 11.0, 10.0])
    assert compare.main([str(noisy), "--contract", str(contract_file)]) == 1
    assert "unresolved" in capsys.readouterr().out
    drifted = result_file(tmp_path / "c.json", STEADY, counts={"digest": "xyz"})
    assert compare.main([str(steady), str(drifted), "--contract", str(contract_file)]) == 1
    assert "exact count differs" in capsys.readouterr().out


def test_smoke_results_are_never_a_baseline(tmp_path, contract_file):
    smoke = result_file(tmp_path / "s.json", STEADY, smoke=True)
    with pytest.raises(SystemExit):
        compare.main([str(smoke), "--contract", str(contract_file)])
    assert compare.main([str(smoke), "--contract", str(contract_file), "--allow-smoke"]) == 0
