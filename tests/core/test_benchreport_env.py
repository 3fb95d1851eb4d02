"""Bench report environment block: the fields that make baselines comparable."""

import argparse
import json
import socket

import repro.benchreport as benchreport
from repro.benchreport import (
    check_regression,
    cpu_model,
    delta_table,
    environment_info,
    fingerprint_mismatches,
)


def test_environment_info_has_all_comparability_fields():
    info = environment_info()
    assert set(info) == {"hostname", "cpu_model", "cpu_count", "python", "platform"}
    assert info["hostname"] == socket.gethostname()
    assert isinstance(info["cpu_model"], str) and info["cpu_model"]
    assert isinstance(info["cpu_count"], int) and info["cpu_count"] >= 1
    assert info["python"].count(".") == 2


def test_cpu_model_is_nonempty_even_without_proc(monkeypatch):
    def refuse(*args, **kwargs):
        raise OSError("no /proc here")

    monkeypatch.setattr("builtins.open", refuse)
    assert cpu_model()  # falls back to platform info, never raises


def _payload(cpu_model="cpu-a", cpu_count=4, events_per_sec=1000.0):
    return {
        "environment": {"cpu_model": cpu_model, "cpu_count": cpu_count},
        "des": {
            "event_throughput": {
                "events": 100.0,
                "seconds": 100.0 / events_per_sec,
                "events_per_sec": events_per_sec,
            },
        },
        "experiments": {"fig3": {"seconds": 2.0}},
        "peak_rss_bytes": 50_000_000,
    }


def _old_payload(**kwargs):
    """A committed baseline from when the bench still had ``des.shard_scaling``."""
    payload = _payload(**kwargs)
    payload["des"]["shard_scaling"] = {
        "shards": 2.0,
        "serial_seconds": 1.0,
        "sharded_seconds": 0.6,
        "speedup": 1.0 / 0.6,
        "identical": 1.0,
    }
    return payload


def test_fingerprint_matches_same_machine():
    assert fingerprint_mismatches(_payload(), _payload()) == []


def test_fingerprint_flags_cpu_model_and_count():
    mismatches = fingerprint_mismatches(
        _payload(cpu_model="cpu-b", cpu_count=8), _payload()
    )
    assert len(mismatches) == 2
    assert any("cpu_model" in m for m in mismatches)
    assert any("cpu_count" in m for m in mismatches)


def test_fingerprint_flags_pre_schema_baseline():
    old = _payload()
    del old["environment"]
    mismatches = fingerprint_mismatches(_payload(), old)
    assert mismatches and "no environment fingerprint" in mismatches[0]


def test_check_regression_skips_entries_without_events_per_sec():
    # An older baseline's shard_scaling row has no events/sec and no
    # counterpart today; it must never trip (or crash) the regression
    # gate, and a real throughput drop still must.
    current = _payload(events_per_sec=100.0)
    baseline = _old_payload(events_per_sec=1000.0)
    failures = check_regression(current, baseline)
    assert len(failures) == 1
    assert "event_throughput" in failures[0]
    assert check_regression(_payload(), baseline) == []


def test_delta_table_ignores_retired_shard_scaling_row():
    table = delta_table(_payload(), _old_payload())
    assert "des.event_throughput" in table
    assert "shard_scaling" not in table
    assert "speedup" not in table


def test_eventlog_add_rate_is_reported_but_never_gated():
    row = benchreport.run_eventlog_benchmark(adds=500, repeats=1)
    assert row["adds"] == 500.0 and row["eventlog_adds_per_sec"] > 0
    current, baseline = _payload(), _payload()
    current["telemetry"] = {**row, "eventlog_adds_per_sec": 1.0}
    baseline["telemetry"] = {**row, "eventlog_adds_per_sec": 1000.0}
    assert "telemetry.eventlog_adds_per_sec" in delta_table(current, baseline)
    assert check_regression(current, baseline) == []
    # a baseline from before the row existed simply has no such line
    assert "eventlog" not in delta_table(current, _payload())


def test_staging_rates_are_reported_but_never_gated():
    block = benchreport.run_staging_benchmark(payload_mib=1, repeats=1)
    assert block["payload_mib"] == 1.0
    assert set(block["staging_mb_per_s"]) == {"kvfile", "redis", "dragon"}
    assert all(rate > 0 for rate in block["staging_mb_per_s"].values())
    current, baseline = _payload(), _payload()
    current["transport"] = {"staging_mb_per_s": {"kvfile": 1.0, "redis": 1.0, "dragon": 1.0}}
    baseline["transport"] = {"staging_mb_per_s": {"kvfile": 900.0, "redis": 900.0}}
    table = delta_table(current, baseline)
    assert "transport.staging_mb_per_s.kvfile" in table
    assert "transport.staging_mb_per_s.redis" in table
    assert "staging_mb_per_s.dragon" not in table  # no baseline value to compare
    assert check_regression(current, baseline) == []
    assert "staging" not in delta_table(current, _payload())


def _run_check(tmp_path, monkeypatch, current, baseline):
    (tmp_path / "BENCH_2026-01-01.json").write_text(json.dumps(baseline))
    monkeypatch.setattr(benchreport, "collect", lambda **kwargs: current)
    args = argparse.Namespace(
        repeats=1, out_dir=str(tmp_path), no_write=True,
        check=True, threshold=0.25, baseline_dir=str(tmp_path),
    )
    return benchreport.cmd_bench(args)


def test_check_gates_same_machine_regression(tmp_path, monkeypatch, capsys):
    rc = _run_check(
        tmp_path, monkeypatch,
        current=_payload(events_per_sec=100.0),
        baseline=_old_payload(events_per_sec=1000.0),
    )
    assert rc == 1
    assert "PERF REGRESSION" in capsys.readouterr().err


def test_check_downgrades_to_warning_on_foreign_baseline(
    tmp_path, monkeypatch, capsys
):
    rc = _run_check(
        tmp_path, monkeypatch,
        current=_payload(events_per_sec=100.0),
        baseline=_old_payload(cpu_model="other-cpu", events_per_sec=1000.0),
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "environment mismatch" in err
    assert "PERF WARNING (foreign baseline)" in err
    assert "PERF REGRESSION" not in err
