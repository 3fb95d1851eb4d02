"""Tests for the Chrome trace-event exporter."""

import json

import pytest

from repro.errors import ReproError
from repro.telemetry import VirtualClock
from repro.telemetry.chrome_trace import (
    REQUIRED_EVENT_KEYS,
    load_trace,
    summarize_trace,
    tracer_events,
    validate_trace_events,
    write_chrome_trace,
)
from repro.telemetry.tracing import Tracer


def build_tracer():
    clock = VirtualClock()
    tracer = Tracer(clock)
    with tracer.span("iteration", category="workload", pid="sim", tid=0, iteration=0):
        clock.advance(0.5)
        with tracer.span("transport.write", category="transport", pid="sim", nbytes=1024):
            clock.advance(0.25)
    tracer.instant("checkpoint", pid="sim")
    tracer.counter("link.occupancy", 2, time=0.6)
    return tracer


def test_tracer_events_structure():
    events = tracer_events(build_tracer())
    assert validate_trace_events(events) == len(events)
    phases = {e["ph"] for e in events}
    assert {"X", "i", "C", "M"} <= phases

    spans = {e["name"]: e for e in events if e["ph"] == "X"}
    assert spans["iteration"]["dur"] == pytest.approx(0.75e6)  # microseconds
    assert spans["transport.write"]["ts"] == pytest.approx(0.5e6)
    assert spans["transport.write"]["args"]["nbytes"] == 1024
    # Same component -> same numeric pid on both spans.
    assert spans["iteration"]["pid"] == spans["transport.write"]["pid"]

    meta = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
    assert {m["args"]["name"] for m in meta} == {"sim", "counters"}

    counter = next(e for e in events if e["ph"] == "C")
    assert counter["args"] == {"value": 2.0}


def test_unfinished_spans_are_skipped():
    tracer = Tracer(VirtualClock())
    tracer.span("open")  # never finished
    assert [e for e in tracer_events(tracer) if e["ph"] == "X"] == []


def test_write_load_round_trip(tmp_path):
    path = tmp_path / "trace.json"
    count = write_chrome_trace(path, tracer=build_tracer())
    events = load_trace(path)
    assert len(events) == count
    assert validate_trace_events(events) == count


def test_load_trace_accepts_object_form(tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps({"traceEvents": [{"ph": "X", "ts": 0, "dur": 1, "pid": 1, "tid": 0, "name": "a"}]}))
    assert len(load_trace(path)) == 1
    bad = tmp_path / "bad.json"
    bad.write_text('{"not": "a trace"}')
    with pytest.raises(ReproError, match="not a Chrome trace"):
        load_trace(bad)


def test_validate_rejects_malformed_events():
    with pytest.raises(ReproError, match="missing keys"):
        validate_trace_events([{"ph": "X", "ts": 0.0}])
    with pytest.raises(ReproError, match="missing 'dur'"):
        validate_trace_events([{"ph": "X", "ts": 0.0, "pid": 1, "tid": 0, "name": "x"}])
    with pytest.raises(ReproError, match="not an object"):
        validate_trace_events(["nope"])
    assert REQUIRED_EVENT_KEYS == ("ph", "ts", "pid", "tid", "name")


def test_summarize_trace_top_k():
    tracer = Tracer(VirtualClock())
    for i, dur in enumerate((0.1, 0.9, 0.5)):
        tracer.add_span(f"op{i}", start=float(i), duration=dur, pid="sim")
    tracer.add_span("other", start=0.0, duration=0.3, pid="ai")
    summary = summarize_trace(tracer_events(tracer), top_k=2)
    by_name = dict(summary)
    assert set(by_name) == {"sim", "ai"}
    assert [e["name"] for e in by_name["sim"]] == ["op1", "op2"]  # slowest first
    assert [e["name"] for e in by_name["ai"]] == ["other"]
    with pytest.raises(ReproError, match="top_k"):
        summarize_trace([], top_k=0)
