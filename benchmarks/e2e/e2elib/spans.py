"""Harness-side spans around the calls into each layer.

Spans are kept in memory and written when the run ends. A span's self
time is its duration minus the part of its interval that its child spans
cover; children may overlap each other (the cover is a union, not a sum)
and are clipped to the parent's interval.

End-to-end metrics are measured with :class:`NullRecorder`, whose
``span`` hands back one shared do-nothing context manager.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Any, Optional


class _Span:
    __slots__ = ("recorder", "record")

    def __init__(self, recorder: "SpanRecorder", record: dict) -> None:
        self.recorder = recorder
        self.record = record

    def __enter__(self) -> dict:
        stack = self.recorder._stack
        self.record["parent"] = stack[-1] if stack else None
        stack.append(self.record["index"])
        self.record["start"] = time.perf_counter()
        return self.record

    def __exit__(self, exc_type, exc, tb) -> None:
        self.record["end"] = time.perf_counter()
        self.recorder._stack.pop()


class _NullSpan:
    def __enter__(self) -> None:
        return None

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


_NULL_SPAN = _NullSpan()


class NullRecorder:
    """Tracing off: ``span`` costs one method call and records nothing."""

    enabled = False

    def span(self, name: str, id: Any = None) -> _NullSpan:
        return _NULL_SPAN


class SpanRecorder:
    """Records ``{index, name, id, parent, start, end}`` dicts in call order.

    Single-threaded by design: the generator is one closed-loop client.
    ``id`` ties the spans of one cell / point / staged key together.
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def span(self, name: str, id: Any = None) -> _Span:
        record = {
            "index": len(self.spans), "name": name, "id": id,
            "parent": None, "start": None, "end": None,
        }
        self.spans.append(record)
        return _Span(self, record)

    def write(self, path: Path, **header: Any) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**header, "clock": "time.perf_counter (s)", "spans": self.spans}
        path.write_text(json.dumps(doc) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    edge = lo
    for start, end in sorted(intervals):
        start, end = max(start, edge), min(end, hi)
        if end > start:
            total += end - start
            edge = end
    return total


def self_times(spans: list[dict]) -> list[float]:
    """Self time of every finished span, in ``spans`` order."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None and s["end"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for s in spans:
        if s["end"] is None:
            out.append(0.0)
            continue
        duration = s["end"] - s["start"]
        out.append(duration - covered(children.get(s["index"], []), s["start"], s["end"]))
    return out


def by_name(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Per span name: count, total seconds and self seconds."""
    table: dict[str, dict[str, float]] = {}
    for s, own in zip(spans, self_times(spans)):
        if s["end"] is None:
            continue
        row = table.setdefault(s["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += s["end"] - s["start"]
        row["self_s"] += own
    return table


def durations(spans: list[dict], name: str, where: Optional[str] = None) -> list[float]:
    """Durations (s) of finished spans called ``name`` (id prefix ``where``)."""
    return [
        s["end"] - s["start"]
        for s in spans
        if s["name"] == name and s["end"] is not None
        and (where is None or str(s["id"]).startswith(where))
    ]
