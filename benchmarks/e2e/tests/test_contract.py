"""BENCHMARK.json against the driver's schema, and a smoke run against it."""

from __future__ import annotations

import json
import re
import shutil

from conftest import E2E, ROOT, run_benchmark

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_schema(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer") for m in contract[key]]
    assert len(names) == len(set(names)), "a name is used once"
    assert all(NAME.match(name) for name in names)
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    # run_seconds fits the driver's cap with this many workloads.
    runs = 4 + 22 * len(contract["workloads"])
    assert runs * (contract["run_seconds"] + 15) < 3420
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_smoke_run_emits_every_declared_name_with_its_unit(contract, smoke_result):
    assert smoke_result["smoke"] is True
    runs = smoke_result["runs"]
    workloads = [w["name"] for w in contract["workloads"]]
    assert sorted((r["workload"], r["trace"]) for r in runs) == sorted(
        (w, t) for w in workloads for t in (0, 1))
    assert all(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1 for r in runs)
    end_to_end = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for run in (r for r in runs if not r["trace"]):
        assert {n: m["unit"] for n, m in run["metrics"].items()} == end_to_end
        assert all(m["value"] > 0 for m in run["metrics"].values())
        assert all(count >= 1 for count in run["samples"].values())
    per_layer = {m["name"]: m["unit"] for m in contract["per_layer"]}
    owned = set()
    for run in (r for r in runs if r["trace"]):
        # Every traced run emits every row; ``on_path`` names the ones it owns.
        assert {n: m["unit"] for n, m in run["metrics"].items()} == per_layer
        assert "bench.trace_overhead_ratio" in run["on_path"]
        owned |= set(run["on_path"])
    assert owned == set(per_layer), "every per-layer row is on some workload's path"


def test_self_shares_sum_to_one_on_the_simulated_workloads(smoke_result):
    for run in smoke_result["runs"]:
        if run["trace"] and run["workload"] in ("p2_incast_128", "p1_sweep_parallel"):
            shares = [m["value"] for n, m in run["metrics"].items() if n.endswith(".self_share")]
            assert len(shares) == 7
            assert abs(sum(shares) - 1.0) <= 0.02


def test_result_file_carries_environment_and_sample_counts(smoke_result):
    env = smoke_result["environment"]
    assert {"cpu_model", "nproc", "python", "platform", "git_commit"} <= set(env)
    for run in smoke_result["runs"]:
        assert {"seed", "rounds", "started", "load_1min_start", "load_1min_end"} <= set(run)
    by_name = {(r["workload"], r["trace"]): r for r in smoke_result["runs"]}
    assert "sqlite_store" in by_name["service_roundtrip", 0]["stores"]
    assert "kvfile_store" in by_name["real_staging", 0]["stores"]
    for metric in by_name["service_roundtrip", 0]["workload_metrics"].values():
        assert metric["samples"] >= 1


def test_smoke_numbers_are_labelled_and_scratch_space_is_gone(smoke_result):
    assert "SMOKE (not a baseline)" in smoke_result["stdout"]
    assert not list(smoke_result["out_dir"].glob("work-*"))
    for workload in ("p2_incast_128", "real_staging"):
        trace = json.loads((smoke_result["out_dir"] / f"trace-{workload}.json").read_text())
        assert trace["spans"] and all(s["end"] >= s["start"] for s in trace["spans"])


def test_contract_mode_prints_one_json_object_last(contract, tmp_path):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        done = run_benchmark("--workload", "service_roundtrip", "--seed", "3", "--seconds",
                             "0.2", "--trace", str(trace), "--smoke", "--out", str(tmp_path))
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert {n: m["unit"] for n, m in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in contract[key]}


def test_refuses_to_run_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and ``paths``: non-zero, no result."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(E2E, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    done = run_benchmark("--workload", "p2_incast_128", "--seed", "0", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path,
                         script=tmp_path / "benchmarks" / "e2e" / "run.py")
    assert done.returncode not in (0, None)
    assert "{" not in done.stdout
