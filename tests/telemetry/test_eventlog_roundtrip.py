"""JSONL round-trip hardening for EventLog (satellite of the
observability PR): non-ASCII component names, out-of-order timestamps,
and metadata survival through save/load."""

import json

import pytest

from repro.errors import ReproError
from repro.telemetry import EventKind, EventLog, EventRecord


def test_round_trip_non_ascii_component_names(tmp_path):
    log = EventLog()
    log.add("simulación", EventKind.WRITE, start=0.0, duration=0.5, nbytes=10, key="снимок")
    log.add("訓練", EventKind.TRAIN, start=1.0, duration=0.25)
    path = tmp_path / "events.jsonl"
    log.save(path)

    loaded = EventLog.load(path)
    assert loaded.components() == ["simulación", "訓練"]
    assert loaded[0] == log[0]
    assert loaded[0].key == "снимок"
    assert loaded[1] == log[1]

    # The file itself keeps the characters readable, not \u-escaped-only:
    # either way json must parse them back identically.
    lines = path.read_text(encoding="utf-8").strip().splitlines()
    assert json.loads(lines[0])["component"] == "simulación"


def test_round_trip_preserves_out_of_order_timestamps(tmp_path):
    # Logs are recorded in completion order, not start order; persistence
    # must not silently re-sort them.
    log = EventLog()
    log.add("sim", EventKind.COMPUTE, start=5.0, duration=1.0)
    log.add("sim", EventKind.COMPUTE, start=1.0, duration=1.0)
    log.add("sim", EventKind.COMPUTE, start=3.0, duration=1.0)
    path = tmp_path / "events.jsonl"
    log.save(path)

    loaded = EventLog.load(path)
    assert [r.start for r in loaded] == [5.0, 1.0, 3.0]
    # Window queries still see the true extent regardless of order.
    assert loaded.span() == (1.0, 6.0)
    assert loaded.makespan() == 5.0


def test_round_trip_meta_and_rank(tmp_path):
    record = EventRecord(
        component="sim",
        kind=EventKind.READ,
        start=0.5,
        duration=0.125,
        rank=7,
        nbytes=2048,
        key="k",
        meta={"note": "コメント", "attempt": 2},
    )
    log = EventLog([record])
    path = tmp_path / "events.jsonl"
    log.save(path)
    loaded = EventLog.load(path)
    assert loaded[0] == record
    assert loaded[0].meta == {"note": "コメント", "attempt": 2}


def test_jsonl_text_round_trip_without_files():
    log = EventLog()
    log.add("naïve-sim", EventKind.POLL, start=2.0, duration=0.0)
    text = log.to_jsonl()
    again = EventLog.from_jsonl(text)
    assert len(again) == 1
    assert again[0].component == "naïve-sim"


def test_a_fig6b_cell_log_saves_its_jsonl_bytes_and_loads_back(tmp_path):
    """The 128-node Fig 6b dragon 1 MB cell (the e2e digest cell): its
    steps and rows reach the file as ``to_jsonl()`` and come back equal."""
    from repro.experiments.common import MB, backend_models, pattern2_contexts
    from repro.workloads.patterns import ManyToOneConfig, run_many_to_one

    write_ctx, read_ctx = pattern2_contexts(128)
    config = ManyToOneConfig(n_simulations=127, train_iterations=20, snapshot_nbytes=1 * MB)
    log = run_many_to_one(
        backend_models()["dragon"], config, write_ctx=write_ctx, read_ctx=read_ctx
    ).log
    assert len(log._entries) < len(log) / 10  # mostly steps
    path = tmp_path / "events.jsonl"
    log.save(path)
    assert path.read_bytes() == (log.to_jsonl() + "\n").encode("utf-8")

    loaded = EventLog.load(path)
    assert len(loaded) == len(log)
    assert list(loaded) == list(log)
    assert loaded.span() == log.span()


def _malformed(line: str) -> str:
    """A two-record log with ``line`` as its third line (a blank line counts)."""
    log = EventLog()
    log.add("sim", EventKind.WRITE, start=0.0, duration=1.0)
    return log.to_jsonl() + "\n\n" + line + "\n"


GOOD = '{"component": "sim", "duration": 1.0, "kind": "write", "start": 0.0}'


@pytest.mark.parametrize(
    "line, reason",
    [
        (GOOD[:-9], "not JSON"),
        (GOOD.replace('"write"', '"wrote"'), "unknown kind 'wrote'"),
        (GOOD.replace('"start": 0.0', '"rank": 0'), r"missing field\(s\) \['start'\]"),
        (GOOD.replace('"start"', '"begin"', 1)[:-1] + ', "start": 0.0}', r"unknown field\(s\) \['begin'\]"),
        ('["sim", "write", 0.0, 1.0]', "not a JSON object"),
        (GOOD.replace('"duration": 1.0', '"duration": -1.0'), "negative duration -1.0 for sim"),
    ],
    ids=["truncated", "unknown-kind", "missing-field", "extra-field", "not-an-object", "negative-duration"],
)
def test_a_malformed_line_is_one_repro_error_naming_its_line(tmp_path, line, reason):
    text = _malformed(line)
    with pytest.raises(ReproError, match=rf"^event log line 3: {reason}"):
        EventLog.from_jsonl(text)
    path = tmp_path / "events.jsonl"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ReproError, match=r"^event log line 3: "):
        EventLog.load(path)
