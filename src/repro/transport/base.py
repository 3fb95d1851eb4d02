"""The unified DataStore client API (paper §3.2).

Every backend exposes the same four primary functions —

* ``stage_write(key, value)``
* ``stage_read(key)``
* ``poll_staged_data(key)``
* ``clean_staged_data(keys=None)``

— so mini-apps can switch transport strategies "simply by selecting the
appropriate arguments at runtime". Clients also keep per-operation
statistics (count, bytes, wall time) and can mirror every operation into a
telemetry :class:`~repro.telemetry.events.EventLog`, which is how the
throughput figures are produced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional

from repro.errors import TransportError
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.timer import Clock, RealClock


@dataclass
class OpStats:
    """Accumulated statistics for one operation type."""

    count: int = 0
    nbytes: float = 0.0
    seconds: float = 0.0

    def record(self, nbytes: float, seconds: float) -> None:
        self.count += 1
        self.nbytes += nbytes
        self.seconds += seconds

    @property
    def mean_seconds(self) -> float:
        return self.seconds / self.count if self.count else 0.0

    @property
    def throughput(self) -> float:
        return self.nbytes / self.seconds if self.seconds > 0 else 0.0


@dataclass
class ClientStats:
    """Per-client operation statistics."""

    write: OpStats = field(default_factory=OpStats)
    read: OpStats = field(default_factory=OpStats)
    poll: OpStats = field(default_factory=OpStats)
    clean: OpStats = field(default_factory=OpStats)


class DataStoreClient:
    """Base class for backend clients: stats + event-log plumbing.

    Subclasses implement ``_write``, ``_read``, ``_poll``, ``_clean`` and
    inherit the public API with timing and one event-log row per op.
    """

    backend_name = "abstract"

    def __init__(
        self,
        name: str = "client",
        rank: int = 0,
        clock: Optional[Clock] = None,
        event_log: Optional[EventLog] = None,
    ) -> None:
        self.name = name
        self.rank = rank
        self.clock = clock or RealClock()
        self.event_log = event_log
        self.stats = ClientStats()

    # -- public API -------------------------------------------------------
    def stage_write(self, key: str, value: Any) -> float:
        """Stage a value under ``key``; returns bytes written."""
        self._check_key(key)
        start = self.clock.now()
        nbytes = self._write(key, value)
        elapsed = self.clock.now() - start
        self.stats.write.record(nbytes, elapsed)
        self._log(EventKind.WRITE, start, elapsed, nbytes, key)
        return nbytes

    def stage_read(self, key: str) -> Any:
        """Read the value staged under ``key`` (raises if absent)."""
        self._check_key(key)
        start = self.clock.now()
        value, nbytes = self._read(key)
        elapsed = self.clock.now() - start
        self.stats.read.record(nbytes, elapsed)
        self._log(EventKind.READ, start, elapsed, nbytes, key)
        return value

    def poll_staged_data(self, key: str) -> bool:
        """True when ``key`` is staged and readable."""
        self._check_key(key)
        start = self.clock.now()
        present = self._poll(key)
        elapsed = self.clock.now() - start
        self.stats.poll.record(0.0, elapsed)
        self._log(EventKind.POLL, start, elapsed, 0.0, key)
        return present

    def clean_staged_data(self, keys: Optional[Iterable[str]] = None) -> int:
        """Remove staged keys (all of this client's namespace when None);
        returns how many were removed."""
        start = self.clock.now()
        removed = self._clean(list(keys) if keys is not None else None)
        elapsed = self.clock.now() - start
        self.stats.clean.record(0.0, elapsed)
        return removed

    def close(self) -> None:
        """Release client-side resources (connections, caches)."""

    def __enter__(self) -> "DataStoreClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- backend interface ----------------------------------------------------
    def _write(self, key: str, value: Any) -> float:
        raise NotImplementedError

    def _read(self, key: str) -> tuple[Any, float]:
        raise NotImplementedError

    def _poll(self, key: str) -> bool:
        raise NotImplementedError

    def _clean(self, keys: Optional[list[str]]) -> int:
        raise NotImplementedError

    # -- helpers ------------------------------------------------------------------
    @staticmethod
    def _check_key(key: str) -> None:
        if not isinstance(key, str) or not key:
            raise TransportError(f"keys must be non-empty strings, got {key!r}")
        if "/" in key or "\x00" in key:
            raise TransportError(f"key {key!r} contains forbidden characters")

    def _log(
        self, kind: EventKind, start: float, duration: float, nbytes: float, key: str
    ) -> None:
        if self.event_log is not None:
            self.event_log.add(
                component=self.name,
                kind=kind,
                start=start,
                duration=duration,
                rank=self.rank,
                nbytes=nbytes,
                key=key,
            )
