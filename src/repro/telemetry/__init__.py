"""Telemetry: clocks, event records, summary statistics, timelines,
hierarchical spans, metrics, and Chrome-trace export.

Names resolve on first use (see :mod:`repro`): a simulated run does not
load the logging, flight-recorder or trace-export modules.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "Clock": ".timer",
    "ComponentLogger": ".log",
    "Counter": ".metrics",
    "CounterSample": ".tracing",
    "EventKind": ".events",
    "EventLog": ".events",
    "EventRecord": ".events",
    "FlightRecorder": ".flight",
    "Gauge": ".metrics",
    "Histogram": ".metrics",
    "JsonLineFormatter": ".log",
    "InstantEvent": ".tracing",
    "Lane": ".timeline",
    "MetricsRegistry": ".metrics",
    "RealClock": ".timer",
    "Span": ".tracing",
    "Stopwatch": ".timer",
    "Summary": ".stats",
    "Telemetry": ".hub",
    "TelemetrySnapshot": ".snapshot",
    "Timeline": ".timeline",
    "TRANSPORT_KINDS": ".events",
    "Tracer": ".tracing",
    "VirtualClock": ".timer",
    "configure_logging": ".log",
    "event_counts": ".stats",
    "get_logger": ".log",
    "host_identity": ".log",
    "iteration_time_summary": ".stats",
    "labeled_name": ".metrics",
    "load_trace": ".chrome_trace",
    "remove_handler": ".log",
    "mean_throughput": ".stats",
    "mean_transport_time": ".stats",
    "runtime_per_iteration": ".stats",
    "summarize_trace": ".chrome_trace",
    "trace_events": ".chrome_trace",
    "validate_trace_events": ".chrome_trace",
    "write_chrome_trace": ".chrome_trace",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
