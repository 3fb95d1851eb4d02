"""Tests for the top-level CLI (python -m repro)."""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import main


def test_kernels_lists_all(capsys):
    assert main(["kernels"]) == 0
    out = capsys.readouterr().out
    for name in ("MatMulSimple2D", "WriteWithMPI", "AllReduce", "CopyHostToDevice"):
        assert name in out


def test_simulate_one_to_one(capsys):
    assert (
        main(
            [
                "simulate",
                "--pattern",
                "one-to-one",
                "--backend",
                "dragon",
                "--nodes",
                "8",
                "--size-mb",
                "1.2",
                "--iterations",
                "100",
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "write throughput/process" in out


def test_simulate_many_to_one(capsys):
    assert (
        main(
            [
                "simulate",
                "--pattern",
                "many-to-one",
                "--backend",
                "filesystem",
                "--nodes",
                "16",
                "--iterations",
                "50",
            ]
        )
        == 0
    )
    assert "runtime per iteration" in capsys.readouterr().out


def test_simulate_streaming_backend(capsys):
    assert main(["simulate", "--backend", "streaming", "--iterations", "50"]) == 0


def test_simulate_unknown_backend():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown backend"):
        main(["simulate", "--backend", "s3"])


def test_run_real_miniapp(tmp_path, capsys):
    config = {
        "server": {"backend": "node-local", "path": str(tmp_path / "stage")},
        "pattern": "one-to-one",
        "one_to_one": {
            "train_iterations": 10,
            "write_interval": 4,
            "read_interval": 3,
            "sim_iter_time": 0.001,
            "ai_iter_time": 0.001,
        },
    }
    config_path = tmp_path / "app.json"
    config_path.write_text(json.dumps(config))
    events_path = tmp_path / "events.jsonl"
    assert main(["run", "--config", str(config_path), "--events-out", str(events_path)]) == 0
    out = capsys.readouterr().out
    assert "snapshots written/read" in out
    assert events_path.exists()
    from repro.telemetry import EventLog

    log = EventLog.load(events_path)
    assert len(log) > 0


def test_run_unsupported_pattern(tmp_path):
    from repro.errors import ConfigError

    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"pattern": "many-to-one"}))
    with pytest.raises(ConfigError, match="unsupported"):
        main(["run", "--config", str(config_path)])


def test_run_non_object_config(tmp_path):
    from repro.errors import ConfigError

    config_path = tmp_path / "list.json"
    config_path.write_text("[1]")
    with pytest.raises(ConfigError):
        main(["run", "--config", str(config_path)])


def simulate_args(*extra):
    return [
        "simulate",
        "--pattern",
        "one-to-one",
        "--backend",
        "redis",
        "--nodes",
        "8",
        "--iterations",
        "100",
        *extra,
    ]


def test_simulate_json_summary(capsys):
    assert main(simulate_args("--json")) == 0
    out = capsys.readouterr().out
    summary = json.loads(out)  # a single JSON object, nothing else
    assert summary["pattern"] == "one-to-one"
    assert summary["backend"] == "redis"
    assert summary["makespan_seconds"] > 0
    write = summary["transport"]["write"]
    assert write["throughput_bytes_per_s"] > 0
    pct = write["time_seconds"]
    assert pct["count"] > 0
    assert pct["p99"] >= pct["p95"] >= pct["p50"] > 0
    assert summary["iteration_time_seconds"]["sim"]["count"] > 0


@pytest.mark.parametrize("flag", [("--shards", "2"), ("--des-core", "calendar")])
def test_simulate_rejects_removed_execution_mode_flags(flag, capsys):
    # A pattern run has one execution mode: the parser no longer knows these.
    with pytest.raises(SystemExit) as exit_info:
        main(simulate_args(*flag))
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_run_still_parses_shards_override(tmp_path):
    # `run --shards` overrides the real server's n_shards: a different flag.
    from repro.errors import ConfigError

    config_path = tmp_path / "bad.json"
    config_path.write_text(json.dumps({"pattern": "many-to-one"}))
    with pytest.raises(ConfigError, match="unsupported"):  # past the parser
        main(["run", "--config", str(config_path), "--shards", "2"])


def test_simulate_text_mode_prints_percentile_table(capsys):
    assert main(simulate_args()) == 0
    out = capsys.readouterr().out
    assert "transport time percentiles" in out
    assert "p95" in out and "p99" in out


def test_simulate_trace_and_metrics_files(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert main(simulate_args("--trace", str(trace), "--metrics", str(metrics))) == 0
    out = capsys.readouterr().out
    assert "Perfetto" in out

    from repro.telemetry import load_trace, validate_trace_events

    events = load_trace(trace)
    assert validate_trace_events(events) == len(events) > 0
    cats = {e.get("cat") for e in events if e.get("ph") == "X"}
    assert {"transport", "workload", "des"} <= cats

    data = json.loads(metrics.read_text())
    assert data["transport.write.seconds{backend=redis}"]["count"] > 0
    assert data["link.occupancy"]["max"] >= 1.0


def test_simulate_json_keeps_stdout_clean_with_trace(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(simulate_args("--json", "--trace", str(trace))) == 0
    json.loads(capsys.readouterr().out)  # trace message must not pollute stdout
    assert trace.exists()


def test_trace_summary_subcommand(tmp_path, capsys):
    trace = tmp_path / "trace.json"
    assert main(simulate_args("--trace", str(trace))) == 0
    capsys.readouterr()
    assert main(["trace-summary", str(trace), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "slowest spans per component" in out
    assert "dur (ms)" in out
    assert "sim" in out


def test_run_with_trace_and_metrics(tmp_path, capsys):
    config = {
        "server": {"backend": "node-local", "path": str(tmp_path / "stage")},
        "one_to_one": {
            "train_iterations": 8,
            "write_interval": 4,
            "read_interval": 4,
            "sim_iter_time": 0.001,
            "ai_iter_time": 0.001,
        },
    }
    config_path = tmp_path / "app.json"
    config_path.write_text(json.dumps(config))
    trace = tmp_path / "trace.json"
    metrics = tmp_path / "metrics.json"
    assert (
        main(
            [
                "run",
                "--config",
                str(config_path),
                "--trace",
                str(trace),
                "--metrics",
                str(metrics),
            ]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert "p50" in out  # percentiles in the iteration lines

    from repro.telemetry import load_trace, validate_trace_events

    events = load_trace(trace)
    assert validate_trace_events(events) == len(events) > 0
    cats = {e.get("cat") for e in events if e.get("ph") == "X"}
    assert {"transport", "workload"} <= cats  # real mode: no DES sampler
    data = json.loads(metrics.read_text())
    assert any(name.startswith("transport.write.seconds") for name in data)


def test_sweep_subcommand_runs_and_reports_progress(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert (
        main(
            [
                "sweep",
                "fig5",
                "--parallel",
                "2",
                "--cache-dir",
                str(cache),
            ]
        )
        == 0
    )
    cold = capsys.readouterr()
    assert "Figure 5" in cold.out
    assert "(run)" in cold.err
    assert "0 cached" in cold.err

    assert (
        main(["sweep", "fig5", "--cache-dir", str(cache)])
        == 0
    )
    warm = capsys.readouterr()
    assert "(cache)" in warm.err
    assert "100%" in warm.err
    assert "0 computed" in warm.err
    # rendered artifact identical however the points were served
    assert warm.out.splitlines()[1:] == cold.out.splitlines()[1:]


def test_sweep_subcommand_serial_matches_plain_driver(capsys, driver_result):
    assert main(["sweep", "table2"]) == 0
    out = capsys.readouterr().out
    assert driver_result("table2").render() in out


def test_sweep_unknown_experiment():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown experiments"):
        main(["sweep", "nope"])


@pytest.mark.parametrize(
    "argv",
    [
        ["-m", "repro", "sweep", "nosuch"],
        ["-m", "repro.experiments", "nosuch"],
        ["-m", "repro", "sweep", "--watch", "127.0.0.1:1", "--submit", "x", "fig3"],
    ],
)
def test_config_error_from_the_shell_is_one_line_and_exit_2(argv):
    # As an argparse usage error: no traceback, status 2, one stderr line.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1
    assert proc.stderr.startswith("repro sweep: error: ")


@pytest.mark.parametrize("pattern", ["one-to-one", "many-to-one"])
def test_a_negative_simulated_size_is_one_line_and_exit_2(pattern):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", "--pattern", pattern,
         "--nodes", "8", "--iterations", "5", "--size-mb", "-1"],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [
        "repro simulate: error: snapshot_nbytes must be finite and >= 0, got -1048576.0"
    ]


@pytest.mark.parametrize(
    "args, message",
    [
        (["--pattern", "many-to-one", "--iterations", "20", "--json"],
         "backend 'node-local' cannot serve the trainer's reads: "
         "node-local backend cannot serve non-local clients"),
        (["--pattern", "many-to-one", "--nodes", "1"],
         "many-to-one needs at least 2 nodes (a trainer and a simulation), got 1"),
        (["--pattern", "many-to-one", "--nodes", "0"],
         "many-to-one needs at least 2 nodes (a trainer and a simulation), got 0"),
        (["--pattern", "one-to-one", "--nodes", "0"],
         "one-to-one needs at least 1 node, got 0"),
        (["--pattern", "many-to-one", "--backend", "redis", "--iterations", "0"],
         "many-to-one reports runtime per training iteration: "
         "--iterations must be >= 1, got 0"),
    ],
    ids=["p2-on-node-local", "p2-one-node", "p2-no-nodes", "p1-no-nodes", "p2-no-iterations"],
)
def test_an_impossible_simulated_run_is_one_line_and_exit_2(args, message):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "simulate", *args],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr.splitlines() == [f"repro simulate: error: {message}"]


@pytest.mark.parametrize("command", ["sweep", "chaos", "bench"])
def test_experiment_commands_take_no_scale_flag(command, capsys):
    # argparse accepts any unique prefix, so "--q" finds every flag that
    # starts with q; the deleted iteration-scale switch was the only one.
    with pytest.raises(SystemExit):
        main([command, "--q"])
    assert "unrecognized arguments: --q" in capsys.readouterr().err


def test_bench_threshold_default_is_the_bench_modules():
    # The parser declares `bench`'s flags itself so that it need not
    # import repro.benchreport; the default must not drift from it.
    from repro.benchreport import DEFAULT_REGRESSION_THRESHOLD
    from repro.cli import build_parser

    assert build_parser().parse_args(["bench"]).threshold == DEFAULT_REGRESSION_THRESHOLD


# -- sweep: distributed/cache flags ----------------------------------------


def test_sweep_flag_validation_errors():
    from repro.errors import ConfigError

    cases = [
        (["sweep", "--cache-info"], "needs --cache-dir"),
        (["sweep"], "name at least one experiment"),
        (
            ["sweep", "fig5", "--serve", "127.0.0.1:1", "--parallel", "2"],
            "--parallel does not apply to --serve",
        ),
        (
            ["sweep", "--connect", "127.0.0.1:1", "--serve", "127.0.0.1:2"],
            "mutually exclusive",
        ),
        (
            ["sweep", "fig5", "--connect", "127.0.0.1:1"],
            "no experiment names",
        ),
        (["sweep", "fig5", "--journal", "j"], "only applies to --serve"),
        (["sweep", "fig5", "--lease", "3"], "only applies to --service, --serve"),
        (["sweep", "--service", "127.0.0.1:1"], "needs --store"),
        (
            [
                "sweep",
                "--service",
                "127.0.0.1:1",
                "--store",
                "s.sqlite",
                "--connect",
                "127.0.0.1:2",
            ],
            "--service and --connect are mutually exclusive",
        ),
        (
            ["sweep", "fig5", "--service", "127.0.0.1:1", "--store", "s.sqlite"],
            "no experiment names",
        ),
        (["sweep", "fig5", "--store", "s.sqlite"], "--store does not apply to a local run"),
        (
            ["sweep", "fig5", "--submit", "127.0.0.1:1", "--serve", "127.0.0.1:2"],
            "mutually exclusive",
        ),
        (
            ["sweep", "fig5", "--submit", "127.0.0.1:1", "--parallel", "2"],
            "--parallel does not apply to --submit",
        ),
        (["sweep", "fig5", "--tenant", "alice"], "only applies to .*--submit"),
    ]
    for argv, match in cases:
        with pytest.raises(ConfigError, match=match):
            main(argv)


@pytest.mark.parametrize(
    "argv, flag, mode",
    [
        ("--watch A:1 --submit B:2", "--submit", "--watch"),
        ("--watch A:1 --parallel 4", "--parallel", "--watch"),
        ("--connect A:1 --tenant t", "--tenant", "--connect"),
        ("--connect A:1 --journal d --lease 3", "--journal", "--connect"),
        ("--connect A:1 --cache-dir c --parallel 4", "--parallel", "--connect"),
        ("fig3 --workers 4 --poll 0.1 --op-timeout 3 --reconnect-budget 5",
         "--workers", "a local run"),
        ("--cache-info --cache-dir c --serve A:1", "--serve", "--cache-info"),
        ("--service A:1 --store s --parallel 4 --cache-dir c", "--parallel",
         "--service"),
        ("usage --store s --parallel 3 --lease 2", "--parallel", "'usage'"),
    ],
)
def test_sweep_refuses_a_flag_its_mode_does_not_read(argv, flag, mode):
    from repro.cli import _validate_sweep_args, build_parser
    from repro.errors import ConfigError

    args = build_parser().parse_args(["sweep", *argv.split()])
    with pytest.raises(ConfigError) as err:
        _validate_sweep_args(args)
    assert flag in str(err.value) and mode in str(err.value)


#: Every sweep command line that CI (ci.yml), README, OPERATIONS,
#: EXPERIMENTS and the e2e harness run, with placeholders filled in.
DOCUMENTED_SWEEP_LINES = [
    # ci.yml
    "fig3 --parallel 2 --cache-dir .sweep-cache",
    "--cache-info --cache-dir .sweep-cache",
    "--service 127.0.0.1:47300 --store service-store/store.sqlite --lease 2 "
    "--flight-recorder service.flight.json",
    "--connect 127.0.0.1:47300 --workers 1 --poll 0.05 --op-timeout 2 "
    "--reconnect-budget 90 --seed 1",
    "--service 127.0.0.1:47301 --store service-store/store.sqlite",
    "usage --store service-store/store.sqlite --json",
    "--service 127.0.0.1:47302 --store service-store/overload.sqlite --lease 2 "
    "--max-live-jobs 2 --max-queued-points 24 --max-connections 64",
    "health --store service-store/overload.sqlite --json",
    "fig3",
    "fig3 --serve 127.0.0.1:47200 --journal .dist-journal --lease 3 "
    "--fleet-trace fleet.trace.json --flight-recorder coordinator.flight.json "
    "--log-json coordinator.log.jsonl --log-level debug",
    "--connect 127.0.0.1:47200 --workers 1 --poll 0.1",
    "--connect 127.0.0.1:47200 --workers 1 --poll 0.1 "
    "--flight-recorder worker2.flight.json",
    "fig3 --serve 127.0.0.1:47200 --journal .dist-journal --lease 3",
    # README.md
    "all",
    "fig3 fig6 --parallel 4 --cache-dir .sweep-cache",
    "fig3 --cache-dir .sweep-cache",
    # OPERATIONS.md
    "--service 0.0.0.0:4700 --store /var/lib/repro/store.sqlite --lease 10 "
    "--flight-recorder /var/log/repro/service-flight.json",
    "--connect HOST:4700 --workers 8",
    "fig3 --submit HOST:4700 --tenant alice",
    "query --store FILE --fingerprint abc123",
    "query --at HOST:4700 --name fig6 --json",
    "usage --store FILE --tenant alice --since 1700000000",
    "gc --store FILE --max-age 604800",
    "gc --at HOST:4700 --max-age 604800 --apply",
    "gc --at HOST:4700 --max-age 2592000 --keep-latest 5 --apply",
    "gc --at HOST:4700 --tenant ci --name smoke --keep-latest 1 --apply",
    "--service 0.0.0.0:4700 --store FILE --max-live-jobs 8 "
    "--max-queued-points 5000 --max-store-mb 2048 --max-connections 256",
    "health --at HOST:4700",
    "--watch HOST:4700",
    "query --store FILE --json",
    # EXPERIMENTS.md
    "ext_faults --parallel 4 --cache-dir .sweep-cache",
    "fig3 --cache-dir .sweep-cache --cache-max-mb 256",
    "fig3 --serve 127.0.0.1:6399 --journal .dist-journal --lease 5",
    "--connect 127.0.0.1:6399 --workers 2",
    "fig3 --serve 127.0.0.1:6399 --lease 5 --fleet-trace fleet.trace.json "
    "--flight-recorder flight.json --log-json serve.log.jsonl --log-level debug",
    "--watch 127.0.0.1:6399",
    "--service 127.0.0.1:6400 --store sweep-store.sqlite --lease 5",
    "--connect 127.0.0.1:6400 --workers 2",
    "fig5 --submit 127.0.0.1:6400 --tenant bob",
    # benchmarks/e2e service_roundtrip
    "--service 127.0.0.1:0 --store F --lease 300",
]


@pytest.mark.parametrize("argv", DOCUMENTED_SWEEP_LINES)
def test_documented_sweep_lines_validate(argv):
    from repro.cli import _validate_sweep_args, build_parser

    _validate_sweep_args(build_parser().parse_args(["sweep", *argv.split()]))


def test_sweep_serve_refuses_a_legacy_jsonl_journal_dir(tmp_path):
    from repro.errors import ConfigError
    from repro.sweep.dist.store import STORE_FILENAME

    journal = tmp_path / "journal"
    journal.mkdir()
    (journal / ("a" * 24 + ".jsonl")).write_text('{"type": "header"}\n')
    argv = ["sweep", "fig5", "--serve", "127.0.0.1:1", "--journal", str(journal)]
    # Serving would silently recompute what the old log acknowledged.
    with pytest.raises(ConfigError, match="legacy .*; name a fresh directory"):
        main(argv)
    # Once a store sits beside them the directory is the new format.
    (journal / STORE_FILENAME).write_bytes(b"")
    from repro.cli import _validate_sweep_args, build_parser

    _validate_sweep_args(build_parser().parse_args(argv))


def test_sweep_rejects_removed_migrate_history_flag(tmp_path, capsys):
    # history.jsonl is the one hit-rate history: there is nothing to import.
    with pytest.raises(SystemExit) as exit_info:
        main(["sweep", "--migrate-history", "--cache-dir", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_progress_tracks_distributed_sources():
    import io

    from repro.cli import _SweepProgress

    progress = _SweepProgress(stream=io.StringIO())
    progress(1, 4, "p0", "cache")
    progress(2, 4, "p1", "journal")
    progress(3, 4, "p2", "run")
    progress(3, 4, "p2", "steal")  # reclaim notice, not a completion
    progress(3, 4, "p2", "retry")
    progress(4, 4, "p3", "run")

    assert progress.total_points == 4
    assert (progress.cached, progress.replayed, progress.computed) == (1, 1, 2)
    assert (progress.stolen, progress.retried) == (1, 1)
    summary = progress.summary("fig9", elapsed=1.23)
    # The leading "N points, M cached (..%), K computed" shape is load-
    # bearing: CI's sweep-smoke greps it. Extras only appear when nonzero.
    assert summary.startswith("sweep fig9: 4 points, 1 cached (25%), 2 computed")
    assert "1 replayed" in summary and "1 stolen" in summary and "1 retried" in summary


def test_sweep_progress_summary_omits_zero_extras():
    import io

    from repro.cli import _SweepProgress

    progress = _SweepProgress(stream=io.StringIO())
    progress(1, 1, "p0", "run")
    summary = progress.summary("t", elapsed=0.0)
    assert "replayed" not in summary and "stolen" not in summary
    assert "retried" not in summary


def test_sweep_cache_info_reports_entries_and_history(tmp_path, capsys):
    from repro.sweep import ResultCache, point_key

    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    cache.store(key, "v")
    cache.lookup(key)
    cache.record_history()

    assert main(["sweep", "--cache-info", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 1" in out
    assert "total size:" in out
    assert "1 hits / 0 misses (100%)" in out


def test_sweep_cache_info_on_empty_directory(tmp_path, capsys):
    assert main(["sweep", "--cache-info", "--cache-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "entries: 0" in out
    assert "(none recorded yet)" in out
