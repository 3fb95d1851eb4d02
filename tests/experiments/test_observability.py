"""Acceptance test: a Fig-3 cell with tracing produces a valid Chrome
trace containing spans from at least three layers (transport op,
workload iteration, DES sampler)."""

from repro.experiments import fig3_throughput
from repro.telemetry import Telemetry, load_trace, summarize_trace, validate_trace_events
from repro.transport.models import MB


def _traced_cell(telemetry):
    """One node-local Fig 3 cell, short enough to trace in a unit test."""
    return fig3_throughput.sweep_point(
        "node-local", 4 * MB, scale=8, iterations=300, telemetry=telemetry
    )


def test_fig3_with_trace_is_valid_and_multi_layer(tmp_path):
    telemetry = Telemetry()
    read, write = _traced_cell(telemetry)
    assert read > 0 and write > 0  # the cell still produces data

    path = tmp_path / "fig3.trace.json"
    count = telemetry.save_trace(path)
    events = load_trace(path)
    assert len(events) == count > 0

    # Structural validity: every event has ph/ts/pid/tid/name (+dur on X).
    assert validate_trace_events(events) == len(events)

    # Spans from >= 3 layers of the stack.
    categories = {e.get("cat") for e in events if e.get("ph") == "X"}
    assert {"transport", "workload", "des"} <= categories

    # The per-layer spans are the expected ones.
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert any(n.startswith("transport.") for n in names)
    assert any(n.startswith("iteration.") for n in names)
    assert "des.sample" in names

    # And the trace is summarizable (what `repro trace-summary` renders).
    summary = summarize_trace(events, top_k=3)
    process_names = {name for name, _ in summary}
    assert {"sim", "train", "des.sampler"} <= process_names


def test_fig3_metrics_document(tmp_path):
    import json

    telemetry = Telemetry()
    _traced_cell(telemetry)
    path = tmp_path / "metrics.json"
    telemetry.save_metrics(path)
    data = json.loads(path.read_text())
    hist = data["transport.write.seconds{backend=node-local}"]
    assert hist["count"] > 0
    assert hist["p99"] >= hist["p95"] >= hist["p50"] > 0
    assert data["link.occupancy"]["max"] >= 1.0
    assert data["des.event_queue"]["n_samples"] > 0
