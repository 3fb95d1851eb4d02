"""Chrome trace-event JSON export: open runs in Perfetto / chrome://tracing.

Writes the *JSON array* flavour of the Trace Event Format: a list of
event objects with ``ph`` (phase), ``ts`` (microseconds), ``pid``,
``tid``, ``name``. Spans become complete events (``ph: "X"`` with
``dur``), counter samples become counter events (``ph: "C"``), instants
become ``ph: "i"``, and metadata events (``ph: "M"``) name each
process/thread track after the component/rank it represents — plus
``process_sort_index``/``thread_sort_index`` metadata so merged
fleet traces (one pid track per worker, named from its HELLO
``hostname:pid`` identity) render in stable name order with the
coordinator track first.

A :class:`~repro.telemetry.tracing.Tracer` is what gets rendered. To
open a saved JSONL event log in Perfetto, run the derive pass on it and
save the hub's trace::

    hub = Telemetry()
    hub.record_run(EventLog.load("events.jsonl"), backend="redis")
    hub.save_trace("events.trace.json")
"""

from __future__ import annotations

import json
from typing import Iterable

from repro.errors import ReproError
from repro.telemetry.tracing import Tracer

#: Trace timestamps are integer-ish microseconds.
_US = 1e6

#: Keys every exported event carries (the format's structural core).
REQUIRED_EVENT_KEYS = ("ph", "ts", "pid", "tid", "name")


class _TrackIds:
    """Stable string->int id assignment for pid/tid tracks.

    Historically this assumed one process's tracer: pids were numbered
    in first-seen order and viewers sorted tracks however they pleased.
    A merged *fleet* trace (coordinator + N workers, each a pid track
    named ``worker HOST:PID`` from its HELLO identity) needs an explicit
    order, so :meth:`sort_metadata` emits ``process_sort_index`` /
    ``thread_sort_index`` metadata ranking tracks by *name* — the
    coordinator track sorts before every ``worker ...`` track, and
    workers appear in stable identity order regardless of which one
    happened to emit its first span first.
    """

    def __init__(self) -> None:
        self._pids: dict[str, int] = {}
        self._tids: dict[tuple[str, int], int] = {}
        self.metadata: list[dict] = []

    def pid(self, name: str) -> int:
        pid = self._pids.get(name)
        if pid is None:
            pid = len(self._pids) + 1
            self._pids[name] = pid
            self.metadata.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": pid,
                    "tid": 0,
                    "name": "process_name",
                    "args": {"name": name},
                }
            )
        return pid

    def tid(self, pid_name: str, tid: int) -> int:
        key = (pid_name, tid)
        mapped = self._tids.get(key)
        if mapped is None:
            mapped = tid
            self._tids[key] = mapped
            self.metadata.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": self.pid(pid_name),
                    "tid": mapped,
                    "name": "thread_name",
                    "args": {"name": f"{pid_name}/rank{tid}"},
                }
            )
        return mapped

    def sort_metadata(self) -> list[dict]:
        """Track-ordering metadata: rank pids (and tids within) by name."""
        events: list[dict] = []
        for rank, name in enumerate(sorted(self._pids)):
            events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": self._pids[name],
                    "tid": 0,
                    "name": "process_sort_index",
                    "args": {"sort_index": rank},
                }
            )
        for pid_name, tid in sorted(self._tids):
            events.append(
                {
                    "ph": "M",
                    "ts": 0,
                    "pid": self._pids[pid_name],
                    "tid": self._tids[(pid_name, tid)],
                    "name": "thread_sort_index",
                    "args": {"sort_index": tid},
                }
            )
        return events

    def all_metadata(self) -> list[dict]:
        return self.metadata + self.sort_metadata()


def _json_safe(args: dict) -> dict:
    return {str(k): (v if isinstance(v, (int, float, bool, str)) else repr(v)) for k, v in args.items()}


def tracer_events(tracer: Tracer) -> list[dict]:
    """Render a tracer's spans/instants/counters as trace events."""
    tracks = _TrackIds()
    events: list[dict] = []
    for span in tracer.spans:
        if not span.finished:
            continue
        events.append(
            {
                "ph": "X",
                "ts": span.start * _US,
                "dur": max(0.0, span.duration) * _US,
                "pid": tracks.pid(span.pid),
                "tid": tracks.tid(span.pid, span.tid),
                "name": span.name,
                "cat": span.category or "span",
                "args": _json_safe(span.args),
            }
        )
    for inst in tracer.instants:
        events.append(
            {
                "ph": "i",
                "ts": inst.time * _US,
                "pid": tracks.pid(inst.pid),
                "tid": tracks.tid(inst.pid, inst.tid),
                "name": inst.name,
                "cat": inst.category or "instant",
                "s": "t",
                "args": _json_safe(inst.args),
            }
        )
    for sample in tracer.counters:
        events.append(
            {
                "ph": "C",
                "ts": sample.time * _US,
                "pid": tracks.pid(sample.pid),
                "tid": 0,
                "name": sample.name,
                "args": {k: float(v) for k, v in sample.values.items()},
            }
        )
    return tracks.all_metadata() + events


#: The package-level name of :func:`tracer_events`: a tracer is the one source.
trace_events = tracer_events


def write_chrome_trace(path, tracer: Tracer) -> int:
    """Write the JSON-array trace file; returns the number of events."""
    events = tracer_events(tracer)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(events, handle)
        handle.write("\n")
    return len(events)


def load_trace(path) -> list[dict]:
    """Read a trace file (array form or ``{"traceEvents": [...]}``)."""
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        data = data.get("traceEvents")
    if not isinstance(data, list):
        raise ReproError(f"{path} is not a Chrome trace (expected an event array)")
    return data


def validate_trace_events(events: Iterable[dict]) -> int:
    """Structurally validate trace events; returns the count or raises."""
    count = 0
    for i, event in enumerate(events):
        if not isinstance(event, dict):
            raise ReproError(f"trace event #{i} is not an object: {event!r}")
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in event]
        if missing:
            raise ReproError(f"trace event #{i} missing keys {missing}: {event!r}")
        if event["ph"] == "X" and "dur" not in event:
            raise ReproError(f"complete event #{i} missing 'dur': {event!r}")
        count += 1
    return count


def summarize_trace(events: list[dict], top_k: int = 5) -> list[tuple[str, list[dict]]]:
    """Top-k slowest complete spans per process track.

    Returns ``[(process_name, [event, ...]), ...]`` with each event list
    sorted by descending ``dur``. Counter/metadata/instant events are
    ignored; processes appear in first-seen order.
    """
    if top_k < 1:
        raise ReproError(f"top_k must be >= 1, got {top_k}")
    names: dict[int, str] = {}
    for event in events:
        if event.get("ph") == "M" and event.get("name") == "process_name":
            names[event["pid"]] = event.get("args", {}).get("name", str(event["pid"]))
    per_process: dict[int, list[dict]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        per_process.setdefault(event["pid"], []).append(event)
    out = []
    for pid, spans in per_process.items():
        spans.sort(key=lambda e: -float(e.get("dur", 0.0)))
        out.append((names.get(pid, str(pid)), spans[:top_k]))
    return out
