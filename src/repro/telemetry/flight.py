"""Flight recorder: a bounded ring of recent events, dumped postmortem.

Structured logs stream everything to a file *if* one was configured; the
flight recorder is the always-on complement — a fixed-size in-memory
ring buffer of the last ``capacity`` protocol events that costs one
deque append per event and is only ever written out when something goes
wrong. Both the sweep service and the worker agent keep one, and
dump it to a postmortem JSON file on **poison** (a point was
quarantined), **crash** (an unhandled exception is about to take the
process down), or **SIGTERM drain** — the black box that explains the
last seconds before the incident.

Dump schema::

    {"component": "service", "reason": "poison",
     "dumped_at": 1754500000.5, "capacity": 512, "recorded": 3817,
     "dropped": 3305,
     "events": [{"ts": ..., "event": "claim", "worker": ..., ...}, ...]}

``recorded`` counts everything ever offered; ``dropped`` is how many
fell off the ring — so a reader knows whether the window is complete.
The recorder is thread-safe (the worker's heartbeat thread and main
loop both record into one ring).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Optional

from repro.errors import ReproError

#: Default ring capacity: enough to cover several lease cycles of a
#: busy fleet without ever mattering for memory.
DEFAULT_CAPACITY = 512


class FlightRecorder:
    """Fixed-capacity event ring with a JSON postmortem dump."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        component: str = "",
        clock: Callable[[], float] = time.time,
    ) -> None:
        if capacity < 1:
            raise ReproError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.component = component
        self.clock = clock
        self.recorded = 0
        self._ring: deque[dict[str, Any]] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()

    def record(self, event: str, **fields: Any) -> None:
        """Append one event; O(1), oldest entry falls off past capacity."""
        entry = {"ts": self.clock(), "event": event}
        entry.update(fields)
        with self._lock:
            self.recorded += 1
            self._ring.append(entry)

    def events(self) -> list[dict[str, Any]]:
        """Snapshot of the ring, oldest first."""
        with self._lock:
            return list(self._ring)

    @property
    def dropped(self) -> int:
        """Events that have already fallen off the ring."""
        with self._lock:
            return self.recorded - len(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def payload(self, reason: str) -> dict[str, Any]:
        """The dump document (also what :meth:`dump` writes)."""
        with self._lock:
            events = list(self._ring)
            recorded = self.recorded
        return {
            "component": self.component,
            "reason": reason,
            "dumped_at": self.clock(),
            "capacity": self.capacity,
            "recorded": recorded,
            "dropped": recorded - len(events),
            "events": events,
        }

    def dump(self, path: str | os.PathLike, reason: str) -> Path:
        """Write the postmortem JSON file; returns its path.

        Writes are atomic (tmp + rename) so a dump racing a second
        signal never leaves a torn file; repeated dumps overwrite —
        the *last* postmortem is the one that matters.
        """
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        document = self.payload(reason)
        tmp = target.with_name(target.name + ".tmp")
        tmp.write_text(
            json.dumps(document, indent=2, sort_keys=True, default=repr) + "\n",
            encoding="utf-8",
        )
        tmp.replace(target)
        return target


def maybe_dump(
    recorder: Optional[FlightRecorder],
    path: Optional[str | os.PathLike],
    reason: str,
) -> Optional[Path]:
    """Dump iff both a recorder and a destination exist; never raises.

    Postmortem writing runs on failure paths (poison, crash handlers,
    signal drains) where a second exception would mask the first — an
    unwritable dump is reported on stderr and swallowed.
    """
    if recorder is None or path is None:
        return None
    try:
        return recorder.dump(path, reason)
    except OSError as exc:  # pragma: no cover - depends on fs failure
        import sys

        print(f"flight recorder dump to {path} failed: {exc}", file=sys.stderr)
        return None


__all__ = ["DEFAULT_CAPACITY", "FlightRecorder", "maybe_dump"]
