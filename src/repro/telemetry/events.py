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
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii as _quoted
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


#: Row layout of :class:`EventLog`: the record's fields, in order (``kind``
#: as its value, a plain ``str``). A step entry is shorter.
_FIELDS = tuple(f.name for f in fields(EventRecord))
_ROW = len(_FIELDS)
_KIND_OF = {kind._value_: kind for kind in EventKind}
#: The fields a JSONL line must carry (the record's fields without a default).
_REQUIRED = frozenset(_FIELDS[:4])
#: ``(row index, step index)`` of the fields every track of a step shares
#: that the statistics read.
_SHARED_AT = {"duration": (3, 3), "nbytes": (5, 4)}


def _kind_value(kind) -> str:
    """The stored form of ``kind``; anything but an :class:`EventKind` raises."""
    if type(kind) is not EventKind:
        raise ReproError(f"kind must be an EventKind, got {kind!r}")
    return kind._value_


def _materialize(row: tuple) -> EventRecord:
    """The public record for a stored row (``meta`` None reads as ``{}``)."""
    return EventRecord(row[0], _KIND_OF[row[1]], *(row[2:7] if row[7] is None else row[2:]))


def _narrowed(entries: list, component: Optional[str], rank: Optional[int]) -> list:
    """The entries on one component and/or rank, in log order.

    A step keeps the tracks that match (and their keys); which ones is
    worked out once per distinct ``tracks`` object, not once per step.
    """
    out = []
    kept: dict[int, tuple] = {}
    for entry in entries:
        if len(entry) == _ROW:
            if (component is None or entry[0] == component) and (rank is None or entry[4] == rank):
                out.append(entry)
            continue
        tracks = entry[0]
        try:
            picks, sub = kept[id(tracks)]
        except KeyError:
            picks = [
                i for i, (c, r) in enumerate(tracks)
                if (component is None or c == component) and (rank is None or r == rank)
            ]
            sub = tracks if len(picks) == len(tracks) else tuple([tracks[i] for i in picks])
            kept[id(tracks)] = picks, sub
        if sub is tracks:
            out.append(entry)
        elif sub:
            keys = entry[5]
            if keys is not None:
                keys = tuple([keys[i] for i in picks])
            out.append((sub, *entry[1:5], keys))
    return out


def _size(entries: list) -> int:
    """How many records the entries stand for."""
    return sum(1 if len(e) == _ROW else len(e[0]) for e in entries)


def _step_rows(entry: tuple) -> Iterator[tuple]:
    """The rows a step entry stands for, in track order."""
    tracks, kind, start, duration, nbytes, keys = entry
    for (component, rank), key in zip(tracks, keys or repeat("")):
        yield (component, kind, start, duration, rank, nbytes, key, None)


# -- JSONL rendering ----------------------------------------------------------
# A record's line is ``json.dumps(fields, sort_keys=True)`` with ``meta``
# None written as ``{}``. The renderer below writes those bytes from an
# entry's own fields: plain ``str``, ``float`` and ``int`` values the way
# the ``json`` encoder writes them, and any other value (a bool, a float or
# int subclass, a non-str component) through ``json.dumps`` itself.

_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _number(value) -> Optional[str]:
    """An exact ``float`` or ``int`` as JSON; None for any other value."""
    if type(value) is float:
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    if type(value) is int:
        return int.__repr__(value)
    return None


def _text(value) -> Optional[str]:
    """An exact ``str`` as an ASCII JSON string; None for any other value."""
    return _quoted(value) if type(value) is str else None


def _dumped(row: tuple) -> str:
    """One row's line through ``json.dumps``: the general path."""
    record = dict(zip(_FIELDS, row))
    record["meta"] = row[7] or {}
    return json.dumps(record, sort_keys=True)


def _row_line(row: tuple) -> str:
    """One row's line, its keys in sorted order."""
    component, kind, start, duration, rank, nbytes, key, meta = row
    parts = (
        _text(component), _number(duration), _text(key), _text(kind),
        _number(nbytes), _number(rank), _number(start),
    )
    if None in parts:
        return _dumped(row)
    c, d, k, kd, n, r, s = parts
    m = json.dumps(meta, sort_keys=True) if meta else "{}"
    return (
        f'{{"component": {c}, "duration": {d}, "key": {k}, "kind": {kd}, '
        f'"meta": {m}, "nbytes": {n}, "rank": {r}, "start": {s}}}'
    )


def _track_heads(tracks: tuple) -> Optional[list]:
    """Per track, its line up to the duration and its rank as JSON (None
    when a component or rank needs the general path)."""
    heads = []
    for component, rank in tracks:
        c, r = _text(component), _number(rank)
        if c is None or r is None:
            return None
        heads.append(('{"component": ' + c + ', "duration": ', r))
    return heads


def _step_lines(entry: tuple, heads_of: dict) -> list[str]:
    """A step's lines: the shared fields rendered once, each track's head
    once per distinct ``tracks`` object (``heads_of``, keyed by ``id``:
    the log's entries hold every ``tracks`` object while it renders)."""
    tracks, kind, start, duration, nbytes, keys = entry
    try:
        heads = heads_of[id(tracks)]
    except KeyError:
        heads = heads_of[id(tracks)] = _track_heads(tracks)
    d, kd, n, s = _number(duration), _text(kind), _number(nbytes), _number(start)
    keyed = None if keys is None else list(map(_text, keys))
    if heads is None or None in (d, kd, n, s) or (keyed is not None and None in keyed):
        return [_dumped(row) for row in _step_rows(entry)]
    tail = ', "start": ' + s + "}"
    after = ', "kind": ' + kd + ', "meta": {}, "nbytes": ' + n + ', "rank": '
    if keyed is None:
        mid = d + ', "key": ""' + after
        return [f"{head}{mid}{rank}{tail}" for head, rank in heads]
    before = d + ', "key": '
    return [
        f"{head}{before}{key}{after}{rank}{tail}" for (head, rank), key in zip(heads, keyed)
    ]


def _parsed(line: str) -> dict:
    """The keyword arguments of :meth:`EventLog.add` for one JSONL line."""
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ReproError(f"not JSON ({exc})") from exc
    if type(record) is not dict:
        raise ReproError(f"not a JSON object: {line[:60]}")
    missing = _REQUIRED - record.keys()
    if missing:
        raise ReproError(f"missing field(s) {sorted(missing)}")
    unknown = record.keys() - _FIELDS
    if unknown:
        raise ReproError(f"unknown field(s) {sorted(unknown)}")
    kind = record["kind"]
    if type(kind) is not str or kind not in _KIND_OF:
        raise ReproError(f"unknown kind {kind!r}")
    record["kind"] = _KIND_OF[kind]
    return record

class EventLog:
    """An append-only collection of event records with query helpers.

    Storage is one list of entries of two shapes. A *row* is one record
    in :class:`EventRecord` field order, ``(component, kind, start,
    duration, rank, nbytes, key, meta)``: ``kind`` is held as its value
    and ``meta`` is None until a caller supplies one, so a row holds only
    atomic objects and the cyclic collector stops tracking it. A *step*,
    ``(tracks, kind, start, duration, nbytes, keys)``, stands for one
    record per ``(component, rank)`` track of a lock-step group (``keys``
    None, or one per track); ``kind``, ``start`` and ``duration`` sit at
    the same index in both shapes. Appending is the hot path of every
    simulated run, so :meth:`add` and :meth:`add_step` validate and
    append one entry and nothing else; every query below reads the
    entries directly. :class:`EventRecord` objects are built only where
    a caller receives one: iteration, ``log[i]`` and ``log[a:b]``.
    """

    def __init__(self, records: Optional[Iterable[EventRecord]] = None) -> None:
        self._entries: list[tuple] = []
        self._count = 0
        for record in records or ():
            self.record(record)

    def record(self, record: EventRecord) -> None:
        """Append one record (validated when it was constructed)."""
        self._entries.append(
            (record.component, _kind_value(record.kind), record.start, record.duration,
             record.rank, record.nbytes, record.key, record.meta)
        )
        self._count += 1

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
        value = kind._value_ if type(kind) is EventKind else _kind_value(kind)
        self._entries.append((component, value, start, duration, rank, nbytes, key, meta))
        self._count += 1

    def add_step(
        self,
        tracks: Sequence[tuple[str, int]],
        kind: EventKind,
        start: float,
        duration: float,
        nbytes: float = 0.0,
        keys: Optional[Sequence[str]] = None,
    ) -> None:
        """Append one record per ``(component, rank)`` track, in order.

        The records of one step of a lock-step group share ``kind``,
        ``start``, ``duration`` and ``nbytes`` (``keys`` names one key per
        track), so they are validated once and stored as one entry. A
        ``tracks`` tuple is stored as it is, not copied: a group builds
        its tuple once and passes that same object every step, so the
        queries' per-``tracks`` caches (:func:`_narrowed`,
        :meth:`_values`) work the group out once. No tracks, no records.
        """
        if not (duration >= 0 and nbytes >= 0):
            _reject_negative(tracks[0][0] if tracks else "?", duration, nbytes)
        if keys is not None:
            keys = tuple(keys)
            if len(keys) != len(tracks):
                raise ReproError(f"{len(keys)} keys for {len(tracks)} tracks")
        if tracks:
            value = kind._value_ if type(kind) is EventKind else _kind_value(kind)
            self._entries.append((tuple(tracks), value, start, duration, nbytes, keys))
            self._count += len(tracks)

    def extend(self, other: "EventLog") -> None:
        """Append every record from another log."""
        self._entries.extend(other._entries)
        self._count += other._count

    def __len__(self) -> int:
        return self._count

    def _expanded(self) -> Iterator[tuple]:
        """Every record as a row, in log order."""
        for entry in self._entries:
            if len(entry) == _ROW:
                yield entry
            else:
                yield from _step_rows(entry)

    def __iter__(self) -> Iterator[EventRecord]:
        return map(_materialize, self._expanded())

    def __getitem__(self, idx):
        if isinstance(idx, slice):
            return [_materialize(row) for row in list(self._expanded())[idx]]
        return _materialize(next(islice(self._expanded(), range(self._count)[idx], None)))

    # -- queries ------------------------------------------------------------
    def _matching(
        self,
        component: Optional[str] = None,
        kind: Optional[EventKind] = None,
        kinds: Optional[Iterable[EventKind]] = None,
        rank: Optional[int] = None,
    ) -> list[tuple]:
        """The entries matching the filter arguments, in log order.

        Each filter given narrows the entries in its own pass and an
        absent one costs nothing: the whole-log scans every run ends with
        (makespan over workload kinds, one component's span) test one
        field per entry, however many ranks a step covers. With no filter
        this is the log's own entry list; callers must not mutate it.
        """
        if kind is not None and kinds is not None:
            raise ReproError("pass either kind or kinds, not both")
        entries = self._entries
        if kind is not None:
            # Rows hold the plain value: a str compare, not the enum's.
            value = kind._value_ if type(kind) is EventKind else kind
            entries = [e for e in entries if e[1] == value]
        if kinds is not None:
            wanted = frozenset(kinds)
            entries = [e for e in entries if e[1] in wanted]
        if component is not None or rank is not None:
            entries = _narrowed(entries, component, rank)
        return entries

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
        entries = self._matching(component, kind, kinds, rank)
        out._entries = list(entries) if entries is self._entries else entries
        out._count = _size(entries)
        return out

    def components(self) -> list[str]:
        """Component names in first-seen order."""
        return list(dict.fromkeys(r[0] for r in self._expanded()))

    def count(self, **where) -> int:
        """Number of records matching the filter arguments."""
        return _size(self._matching(**where))

    def durations(self) -> list[float]:
        """Every record's duration, in log order.

        An empty log yields ``[]`` (the documented sentinel) — summary
        statistics over no events are simply empty, unlike time-window
        queries which have no meaningful answer (see :meth:`span`).
        """
        return self._values("duration").tolist()

    def sizes(self) -> list[float]:
        """Every record's nbytes, in log order."""
        return self._values("nbytes").tolist()

    def total_bytes(self) -> float:
        """Sum of nbytes over all records."""
        return sum(self.sizes())

    def _values(
        self,
        name: str,
        component: Optional[str] = None,
        kind: Optional[EventKind] = None,
        kinds: Optional[Iterable[EventKind]] = None,
        rank: Optional[int] = None,
    ):
        """``name`` (``"duration"`` or ``"nbytes"``) of every matching
        record, as a float ``numpy`` array in log order.

        The statistics' one read of the log: the records of a step share
        the field, so it is taken once per entry and repeated by how many
        of the step's tracks match, a count worked out once per distinct
        ``tracks`` object (as :func:`_narrowed` does). The array equals,
        element for element, :meth:`filter` with the same arguments
        followed by :meth:`durations` or :meth:`sizes`.
        """
        import numpy as np  # a log is built and written without numpy

        row_at, step_at = _SHARED_AT[name]
        narrow = component is not None or rank is not None
        values: list = []
        counts: list[int] = []
        matching: dict[int, int] = {}
        for entry in self._matching(kind=kind, kinds=kinds):
            if len(entry) == _ROW:
                if narrow and not (
                    (component is None or entry[0] == component)
                    and (rank is None or entry[4] == rank)
                ):
                    continue
                values.append(entry[row_at])
                counts.append(1)
                continue
            tracks = entry[0]
            n = matching.get(id(tracks))
            if n is None:
                n = matching[id(tracks)] = len(tracks) if not narrow else sum(
                    1 for c, r in tracks
                    if (component is None or c == component) and (rank is None or r == rank)
                )
            if n:
                values.append(entry[step_at])
                counts.append(n)
        return np.repeat(np.array(values, dtype=float), np.array(counts, dtype=np.intp))

    def _window(self, what: str, where: dict) -> tuple[float, float]:
        """One pass over the matching entries: (min start, max end)."""
        first = last = None
        for e in self._matching(**where):
            start = e[2]
            end = start + e[3]
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
        """Serialize as one JSON object per line, in log order.

        Each line is ``json.dumps`` of the record's fields with
        ``sort_keys=True`` (``meta`` None as ``{}``), written per entry
        without building the record: a step renders its shared fields
        once for all its tracks.
        """
        lines: list[str] = []
        heads_of: dict[int, Optional[list]] = {}
        for entry in self._entries:
            if len(entry) == _ROW:
                lines.append(_row_line(entry))
            else:
                lines.extend(_step_lines(entry, heads_of))
        return "\n".join(lines)

    @classmethod
    def from_jsonl(cls, text: str) -> "EventLog":
        """Parse a log from :meth:`to_jsonl` output (blank lines skipped).

        A malformed line (not JSON, not an object, a missing or unknown
        field, an unknown kind, an invalid value) raises one
        :class:`~repro.errors.ReproError` naming its 1-based line number.
        """
        log = cls()
        for number, line in enumerate(text.splitlines(), 1):
            line = line.strip()
            if not line:
                continue
            try:
                log.add(**_parsed(line))
            except (ReproError, TypeError) as exc:
                raise ReproError(f"event log line {number}: {exc}") from exc
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
