"""Event records: the raw material of every analysis in the paper.

Each component records an :class:`EventRecord` per iteration, data
transport operation, and initialization span. Table 2 counts them, Table 3
summarises their durations, Fig 2 renders them as a timeline, and Figs 3–6
turn the transport events into throughput.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence

from repro.errors import EmptyLogError, ReproError


class EventKind(str, Enum):
    """What a span of component time was spent on."""

    INIT = "init"
    COMPUTE = "compute"
    WRITE = "write"
    READ = "read"
    POLL = "poll"
    TRAIN = "train"
    FAULT = "fault"
    OTHER = "other"


# Kinds that are data-transport operations (Table 2's "data transport").
TRANSPORT_KINDS = frozenset({EventKind.WRITE, EventKind.READ})


def _reject_negative(component: str, duration: float, nbytes: float) -> None:
    """Raise for a negative or NaN duration or size (shared by record and log).

    ``not x >= 0`` rather than ``x < 0``: every comparison with NaN is
    false, and one stored NaN turns makespan and throughput into NaN.
    """
    if not duration >= 0:
        raise ReproError(f"negative duration {duration} for {component}")
    if not nbytes >= 0:
        raise ReproError(f"negative nbytes {nbytes} for {component}")


@dataclass(frozen=True)
class EventRecord:
    """One span of activity on one component/rank."""

    component: str
    kind: EventKind
    start: float
    duration: float
    rank: int = 0
    nbytes: float = 0.0
    key: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        _reject_negative(self.component, self.duration, self.nbytes)

    @property
    def end(self) -> float:
        """start + duration."""
        return self.start + self.duration

    @property
    def throughput(self) -> float:
        """Bytes/s for transport events (0 for instantaneous/empty events)."""
        if self.duration <= 0:
            return 0.0
        return self.nbytes / self.duration


#: Row layout of :class:`EventLog`: the record's fields, in order.
_FIELDS = tuple(f.name for f in fields(EventRecord))


def _materialize(row: tuple) -> EventRecord:
    """The public record for a stored row (``meta`` None reads as ``{}``)."""
    return EventRecord(*row) if row[7] is not None else EventRecord(*row[:7])


class EventLog:
    """An append-only collection of event records with query helpers.

    Storage is one plain tuple per record, in :class:`EventRecord` field
    order: ``(component, kind, start, duration, rank, nbytes, key, meta)``
    with ``meta`` None until a caller supplies one. Appending is the hot
    path of every simulated run, so :meth:`add` validates and appends a
    row and nothing else; every query below reads the rows directly.
    :class:`EventRecord` objects are built only where a caller receives
    one: iteration, ``log[i]`` and ``log[a:b]``.
    """

    def __init__(self, records: Optional[Iterable[EventRecord]] = None) -> None:
        self._rows: list[tuple] = []
        for record in records or ():
            self.record(record)

    def record(self, record: EventRecord) -> None:
        """Append one record (validated when it was constructed)."""
        self._rows.append(
            (record.component, record.kind, record.start, record.duration,
             record.rank, record.nbytes, record.key, record.meta)
        )

    def add(
        self,
        component: str,
        kind: EventKind,
        start: float,
        duration: float,
        rank: int = 0,
        nbytes: float = 0.0,
        key: str = "",
        meta: Optional[dict] = None,
    ) -> None:
        """Validate and append one record."""
        if not (duration >= 0 and nbytes >= 0):
            _reject_negative(component, duration, nbytes)
        self._rows.append((component, kind, start, duration, rank, nbytes, key, meta))

    def add_step(
        self,
        tracks: Sequence[tuple[str, int]],
        kind: EventKind,
        start: float,
        duration: float,
    ) -> None:
        """Append one record per ``(component, rank)`` track, in order.

        The records of one step of a lock-step group share ``kind``,
        ``start`` and ``duration``, so they are validated once and
        appended with one ``list.extend``.
        """
        if not duration >= 0:
            _reject_negative(tracks[0][0], duration, 0.0)
        self._rows.extend(
            [(component, kind, start, duration, rank, 0.0, "", None) for component, rank in tracks]
        )

    def extend(self, other: "EventLog") -> None:
        """Append every record from another log."""
        self._rows.extend(other._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[EventRecord]:
        return map(_materialize, self._rows)

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [_materialize(row) for row in self._rows[idx]]
        return _materialize(self._rows[idx])

    # -- queries ------------------------------------------------------------
    def _matching(
        self,
        component: Optional[str] = None,
        kind: Optional[EventKind] = None,
        kinds: Optional[Iterable[EventKind]] = None,
        rank: Optional[int] = None,
    ) -> list[tuple]:
        """The rows matching the filter arguments, in log order.

        Each filter given narrows the rows in its own pass and an absent
        one costs nothing: the whole-log scans every run ends with
        (makespan over workload kinds, one component's span) test one
        field per row. With no filter this is the log's own row list;
        callers must not mutate it.
        """
        if kind is not None and kinds is not None:
            raise ReproError("pass either kind or kinds, not both")
        rows = self._rows
        if component is not None:
            rows = [r for r in rows if r[0] == component]
        if rank is not None:
            rows = [r for r in rows if r[4] == rank]
        if kind is not None:
            rows = [r for r in rows if r[1] == kind]
        if kinds is not None:
            wanted = frozenset(kinds)
            rows = [r for r in rows if r[1] in wanted]
        return rows

    def filter(
        self,
        component: Optional[str] = None,
        kind: Optional[EventKind] = None,
        kinds: Optional[Iterable[EventKind]] = None,
        rank: Optional[int] = None,
    ) -> "EventLog":
        """A new log containing only the matching records.

        :meth:`count`, :meth:`span` and :meth:`makespan` take the same
        arguments as keywords and answer without building a log.
        """
        out = EventLog()
        rows = self._matching(component, kind, kinds, rank)
        out._rows = list(rows) if rows is self._rows else rows
        return out

    def components(self) -> list[str]:
        """Component names in first-seen order."""
        return list(dict.fromkeys(r[0] for r in self._rows))

    def count(self, **where) -> int:
        """Number of records matching the filter arguments."""
        return len(self._matching(**where))

    def durations(self) -> list[float]:
        """Every record's duration, in log order.

        An empty log yields ``[]`` (the documented sentinel) — summary
        statistics over no events are simply empty, unlike time-window
        queries which have no meaningful answer (see :meth:`span`).
        """
        return [r[3] for r in self._rows]

    def total_bytes(self) -> float:
        """Sum of nbytes over all records."""
        return sum(r[5] for r in self._rows)

    def _window(self, what: str, where: dict) -> tuple[float, float]:
        """One pass over the matching rows: (min start, max end)."""
        first = last = None
        for r in self._matching(**where):
            start = r[2]
            end = start + r[3]
            if first is None:
                first, last = start, end
                continue
            if start < first:
                first = start
            if end > last:
                last = end
        if first is None:
            raise EmptyLogError(
                f"{what}() on an empty event log — no records means no time "
                "window (check component/kind filters)"
            )
        return first, last

    def span(self, **where) -> tuple[float, float]:
        """(earliest start, latest end) over the matching records.

        Raises :class:`~repro.errors.EmptyLogError` when nothing matches:
        there is no meaningful time window, and silently returning
        ``(0.0, 0.0)`` used to hide filters that matched nothing.
        """
        return self._window("span", where)

    def makespan(self, **where) -> float:
        """Latest end minus earliest start (raises when nothing matches)."""
        start, end = self._window("makespan", where)
        return end - start

    # -- (de)serialisation ----------------------------------------------------
    def to_jsonl(self) -> str:
        """Serialize as one JSON object per line."""
        lines = []
        for row in self._rows:
            d = dict(zip(_FIELDS, row))
            d["kind"] = row[1].value
            d["meta"] = row[7] or {}
            lines.append(json.dumps(d, sort_keys=True))
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        """Parse a log from :meth:`to_jsonl` output (blank lines skipped)."""
        log = cls()
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            d["kind"] = EventKind(d["kind"])
            log.add(**d)
        return log

    def save(self, path) -> None:
        """Write the JSONL form to ``path``."""
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_jsonl())
            handle.write("\n")

    @classmethod
    def load(cls, path) -> "EventLog":
        """Read a log saved with :meth:`save`."""
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_jsonl(handle.read())
