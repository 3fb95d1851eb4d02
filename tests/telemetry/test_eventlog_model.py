"""The entry-list EventLog against a list-of-EventRecord reference model.

The model is the first implementation reduced to its essentials: every
record is an :class:`EventRecord` held in a list and every query goes
through the record's attributes. The real log stores rows and steps (one
entry standing for one record per track). Hypothesis drives both through
the same operations and requires equal records, equal answers, equal
errors and byte-equal JSONL, wherever the step boundaries fall.
"""

import gc
import json
import pickle
import sys
from dataclasses import asdict
from enum import IntEnum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyLogError, ReproError
from repro.experiments.common import backend_models
from repro.telemetry import EventKind, EventLog, EventRecord
from repro.workloads.patterns import ManyToOneConfig, run_many_to_one


class ModelLog:
    """Reference: a plain list of EventRecord objects."""

    def __init__(self, records=()):
        self.records = list(records)

    def add(self, component, kind, start, duration, **kwargs):
        self.records.append(EventRecord(component, kind, start, duration, **kwargs))

    def filter(self, component=None, kind=None, kinds=None, rank=None):
        if kind is not None and kinds is not None:
            raise ReproError("pass either kind or kinds, not both")
        wanted = None if kinds is None else frozenset(kinds)
        return ModelLog(
            r for r in self.records
            if (component is None or r.component == component)
            and (kind is None or r.kind == kind)
            and (wanted is None or r.kind in wanted)
            and (rank is None or r.rank == rank)
        )

    def span(self):
        if not self.records:
            raise EmptyLogError("empty event log")
        return min(r.start for r in self.records), max(r.end for r in self.records)

    def components(self):
        return list(dict.fromkeys(r.component for r in self.records))

    def to_jsonl(self):
        lines = []
        for r in self.records:
            d = asdict(r)
            d["kind"] = r.kind.value
            lines.append(json.dumps(d, sort_keys=True))
        return "\n".join(lines)


COMPONENTS = st.sampled_from(["sim", "train", "sim0", "sim1"])
KINDS = st.sampled_from(list(EventKind))
RANKS = st.integers(min_value=0, max_value=3)
TIMES = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
# Durations and sizes stray below zero (and to NaN, for which every
# comparison is false) often enough to hit validation.
SIGNED = st.one_of(
    st.floats(min_value=0, max_value=1e9),
    st.floats(min_value=-5, max_value=5),
    st.just(float("nan")),
)
METAS = st.dictionaries(st.text(max_size=4), st.one_of(st.integers(), st.text(max_size=4)), max_size=2)
OPTIONAL = st.fixed_dictionaries(
    {}, optional={"rank": RANKS, "nbytes": SIGNED, "key": st.text(max_size=6), "meta": METAS}
)
FIELDS = st.tuples(COMPONENTS, KINDS, TIMES, SIGNED, OPTIONAL)
RECORD_OPS = st.tuples(st.sampled_from(["add", "record", "extend"]), FIELDS)
# One step of a lock-step group: 0-5 tracks on mixed components (so a
# component or rank filter splits it), shared kind/start/duration/nbytes,
# and optionally one key per track. Tracks arrive as a tuple or a list.
TRACKS = st.lists(st.tuples(COMPONENTS, RANKS), max_size=5)
STEP_OPS = TRACKS.flatmap(
    lambda tracks: st.tuples(
        st.just("add_step"),
        st.tuples(
            st.sampled_from([tracks, tuple(tracks)]),
            KINDS,
            TIMES,
            SIGNED,
            st.fixed_dictionaries(
                {},
                optional={
                    "nbytes": SIGNED,
                    "keys": st.lists(
                        st.text(max_size=6), min_size=len(tracks), max_size=len(tracks)
                    ),
                },
            ),
        ),
    )
)
OPS = st.lists(st.one_of(RECORD_OPS, STEP_OPS), max_size=25)
FILTERS = st.fixed_dictionaries(
    {},
    optional={
        "component": st.one_of(st.none(), COMPONENTS),
        "kind": st.one_of(st.none(), KINDS),
        "kinds": st.one_of(st.none(), st.lists(KINDS, max_size=3)),
        "rank": st.one_of(st.none(), RANKS),
    },
)


# Wider values, for the JSONL renderer. A *plain* value is one the
# renderer writes itself: any text (non-ASCII, control characters), an
# exact float (non-finite and -0.0 included) or int, nested unicode
# metadata. An *odd* value goes through json.dumps: a bool, np.float64,
# an IntEnum rank, a str subclass, a non-str component or key. A record,
# a step and a tracks tuple are all plain or carry one odd value, half
# the time each. Steps draw their tracks from a small pool, so one
# tracks object recurs across steps (and two of one length differ), with
# and without keys, between rows.
class Rank(IntEnum):
    LEAD = 0
    PEER = 7


class Label(str):
    pass


PLAIN_TEXT = st.text(max_size=10)
PLAIN_STARTS = st.one_of(
    st.floats(),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), -0.0]),
    st.integers(-(2**64), 2**64),
)
PLAIN_SIZES = st.one_of(
    st.floats(min_value=0), st.sampled_from([-0.0, float("inf")]), st.integers(0, 2**64)
)
PLAIN_RANKS = st.integers(-(2**70), 2**70)
PLAIN_METAS = st.dictionaries(
    PLAIN_TEXT,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | PLAIN_TEXT,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(PLAIN_TEXT, inner, max_size=3),
        max_leaves=6,
    ),
    max_size=3,
)
ODD_NUMBERS = st.one_of(st.booleans(), st.floats().map(np.float64), st.sampled_from(Rank))
ODD_TEXT = st.one_of(st.integers(-3, 3), PLAIN_TEXT.map(Label))


def one_odd(plain: dict, odd: dict):
    """Fields drawn from ``plain``, none or one of them redrawn from ``odd``."""
    swap = st.one_of(
        st.none(),
        st.sampled_from(sorted(odd)).flatmap(lambda name: st.tuples(st.just(name), odd[name])),
    )
    return st.tuples(st.fixed_dictionaries(plain), swap).map(
        lambda drawn: {**drawn[0], **dict([drawn[1]] if drawn[1] else [])}
    )


def one_swapped(plain_items, odd_item):
    """A list from ``plain_items`` with one element swapped for ``odd_item``."""
    return plain_items.flatmap(
        lambda items: st.tuples(st.integers(0, len(items) - 1), odd_item).map(
            lambda at: [*items[: at[0]], at[1], *items[at[0] + 1:]]
        )
    )


def as_op(op: str, fields: dict) -> tuple:
    """``(op, (component or tracks, kind, start, duration, optional))``, as :func:`build` takes."""
    first = fields.pop("tracks" if op == "add_step" else "component")
    return op, (first, fields.pop("kind"), fields.pop("start"), fields.pop("duration"), fields)


WIDE_RECORD_OPS = st.tuples(
    st.sampled_from(["add", "record", "extend"]),
    one_odd(
        {"component": PLAIN_TEXT, "kind": KINDS, "start": PLAIN_STARTS, "duration": PLAIN_SIZES,
         "rank": PLAIN_RANKS, "nbytes": PLAIN_SIZES, "key": PLAIN_TEXT, "meta": PLAIN_METAS},
        {"component": ODD_TEXT, "start": ODD_NUMBERS, "duration": ODD_NUMBERS,
         "rank": ODD_NUMBERS, "nbytes": ODD_NUMBERS, "key": ODD_TEXT},
    ),
).map(lambda drawn: as_op(*drawn))


def pool_of_tracks(n: int):
    """One to three distinct plain tracks tuples of ``n`` tracks, and maybe
    one with an odd track."""
    plain = st.lists(st.tuples(PLAIN_TEXT, PLAIN_RANKS), min_size=n, max_size=n)
    odd_track = st.one_of(st.tuples(ODD_TEXT, PLAIN_RANKS), st.tuples(PLAIN_TEXT, ODD_NUMBERS))
    return st.tuples(
        st.lists(plain, min_size=1, max_size=3, unique_by=tuple),
        st.lists(one_swapped(plain, odd_track), max_size=1),
    ).map(lambda lists: [tuple(tracks) for tracks in lists[0] + lists[1]])


def wide_step(tracks: tuple):
    keys = st.lists(PLAIN_TEXT, min_size=len(tracks), max_size=len(tracks))
    return one_odd(
        {"tracks": st.just(tracks), "kind": KINDS, "start": PLAIN_STARTS,
         "duration": PLAIN_SIZES, "nbytes": PLAIN_SIZES, "keys": st.one_of(st.none(), keys)},
        {"start": ODD_NUMBERS, "duration": ODD_NUMBERS, "nbytes": ODD_NUMBERS,
         "keys": one_swapped(keys, ODD_TEXT)},
    ).map(lambda fields: as_op("add_step", fields))


WIDE_OPS = st.integers(1, 3).flatmap(pool_of_tracks).flatmap(
    lambda pool: st.lists(
        st.one_of(WIDE_RECORD_OPS, st.sampled_from(pool).flatmap(wide_step)),
        min_size=4,
        max_size=20,
    )
)


def build(ops):
    """Apply ``ops`` to a real log and the model; invalid ones to neither."""
    log, model = EventLog(), ModelLog()
    for op, (component, kind, start, duration, optional) in ops:
        if op == "add_step":
            # Validated once, against the first track (no track: "?"),
            # then one record per track in track order.
            tracks, nbytes = component, optional.get("nbytes", 0.0)
            keys = optional.get("keys") or [""] * len(tracks)
            try:
                EventRecord(tracks[0][0] if tracks else "?", kind, start, duration, nbytes=nbytes)
            except ReproError as err:
                with pytest.raises(ReproError) as caught:
                    log.add_step(tracks, kind, start, duration, **optional)
                assert str(caught.value) == str(err)
                continue
            log.add_step(tracks, kind, start, duration, **optional)
            model.records.extend(
                EventRecord(c, kind, start, duration, rank=r, nbytes=nbytes, key=key)
                for (c, r), key in zip(tracks, keys)
            )
            continue
        try:
            record = EventRecord(component, kind, start, duration, **optional)
        except ReproError as err:
            # Validation belongs to add(), with the record's own message,
            # and a rejected add leaves the log untouched.
            with pytest.raises(ReproError) as caught:
                log.add(component, kind, start, duration, **optional)
            assert str(caught.value) == str(err)
            continue
        if op == "add":
            log.add(component, kind, start, duration, **optional)
        elif op == "record":
            log.record(record)
        else:
            other = EventLog([record])
            other.add(component, kind, start, duration, **optional)
            log.extend(other)
            model.records.append(record)
        model.records.append(record)
    return log, model


def outcome(call):
    """The value of ``call()``, or the error class and message it raised."""
    try:
        return call()
    except ReproError as err:
        return type(err), str(err)


def assert_same(log: EventLog, model: ModelLog) -> None:
    records = model.records
    assert list(log) == records
    assert len(log) == len(records)
    assert log.durations() == [r.duration for r in records]
    assert log.total_bytes() == sum(r.nbytes for r in records)
    assert log.components() == model.components()
    assert log.to_jsonl() == model.to_jsonl()
    if records:
        assert log.span() == model.span()
        start, end = model.span()
        assert log.makespan() == end - start
    else:
        for query in (log.span, log.makespan):
            with pytest.raises(EmptyLogError, match="empty event log"):
                query()


@settings(max_examples=150, deadline=None)
@given(ops=OPS, more=OPS, where=FILTERS, index=st.integers(-30, 30), cut=st.tuples(
    st.one_of(st.none(), st.integers(-30, 30)), st.one_of(st.none(), st.integers(-30, 30))))
def test_eventlog_matches_reference_model(ops, more, where, index, cut):
    log, model = build(ops)
    assert_same(log, model)
    if model.records:
        assert log[-1] == model.records[-1]

    # filter / count / span / makespan take the same arguments and agree
    # with filtering the model first, including the kind+kinds error.
    expected = outcome(lambda: model.filter(**where))
    if isinstance(expected, ModelLog):
        assert_same(log.filter(**where), expected)
        assert log.count(**where) == len(expected.records)
        assert outcome(lambda: log.span(**where)) == outcome(log.filter(**where).span)
        assert outcome(lambda: log.makespan(**where)) == outcome(log.filter(**where).makespan)
    else:
        for query in (log.filter, log.count, log.span, log.makespan):
            assert outcome(lambda: query(**where)) == expected

    # indexing and slicing hand out EventRecord objects
    if -len(model.records) <= index < len(model.records):
        assert log[index] == model.records[index]
        assert isinstance(log[index], EventRecord)
    else:
        with pytest.raises(IndexError):
            log[index]
    assert log[cut[0]:cut[1]] == model.records[cut[0]:cut[1]]

    # round trips
    assert_same(EventLog.from_jsonl(log.to_jsonl()), model)
    assert_same(pickle.loads(pickle.dumps(log)), model)
    assert_same(EventLog(model.records), model)

    # extend copies entries, steps included, and leaves its argument alone;
    # a filter result taken earlier does not see what its source gained
    # (and the source does not see what the result gains).
    if isinstance(expected, ModelLog):
        filtered = log.filter(**where)
    other, other_model = build(more)
    log.extend(other)
    assert_same(other, other_model)
    assert_same(log, ModelLog(model.records + other_model.records))
    if isinstance(expected, ModelLog):
        assert_same(filtered, expected)
        filtered.add_step([("sim", 0), ("train", 1)], EventKind.OTHER, 0.0, 1.0)
        assert len(filtered) == len(expected.records) + 2
        assert_same(log, ModelLog(model.records + other_model.records))


@settings(max_examples=100, deadline=None)
@given(ops=WIDE_OPS)
def test_to_jsonl_is_json_dumps_of_every_record(ops):
    """The per-entry renderer writes what ``json.dumps`` writes, record by
    record, for any value a record may hold."""
    log, model = build(ops)
    assert log.to_jsonl() == model.to_jsonl()


def test_filtered_log_is_independent_of_its_source():
    log = EventLog()
    log.add("sim", EventKind.COMPUTE, 0.0, 1.0)
    log.add_step((("sim", 0), ("train", 1)), EventKind.WRITE, 1.0, 1.0, 8.0, ("a", "b"))
    everything, narrowed = log.filter(), log.filter(component="train")
    everything.add("sim", EventKind.COMPUTE, 1.0, 1.0)
    narrowed.add_step([("sim", 2)], EventKind.COMPUTE, 2.0, 1.0)
    log.add("train", EventKind.TRAIN, 3.0, 1.0)
    assert (len(log), len(everything), len(narrowed)) == (4, 4, 2)
    assert [(r.component, r.key) for r in narrowed] == [("train", "b"), ("sim", "")]


def test_add_allocates_one_row_per_record():
    """A count, not a timing: N adds may allocate N rows and nothing else.

    ``gc.get_objects`` sees a per-record container that holds other
    containers; ``sys.getallocatedblocks`` also sees a per-record
    dataclass instance or empty ``meta`` dict (three blocks per add
    before the row store).
    """
    n = 5000
    log = EventLog()
    add = log.add
    starts = [float(i) for i in range(n)]  # allocated before the measurement
    add("sim", EventKind.COMPUTE, -1.0, 0.5, 3, 1e6, "k")
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        tracked, blocks = len(gc.get_objects()), sys.getallocatedblocks()
        for start in starts:
            add("sim", EventKind.COMPUTE, start, 0.5, 3, 1e6, "k")
        tracked = len(gc.get_objects()) - tracked
        blocks = sys.getallocatedblocks() - blocks
    finally:
        if enabled:
            gc.enable()
    assert len(log) == n + 1
    assert tracked <= n + 32
    assert blocks <= n + 32


def healthy_p2_cell_log() -> EventLog:
    """The log of one healthy 128-node Pattern 2 cell (127 producers)."""
    config = ManyToOneConfig(n_simulations=127, train_iterations=4, snapshot_nbytes=1.2e6)
    return run_many_to_one(backend_models()["filesystem"], config).log


def test_no_entry_of_a_p2_cell_log_stays_gc_tracked():
    """A count, not a timing: the collector has nothing of the log to walk.

    A row holds only atomic objects, so its first collection untracks it.
    A step holds tuples of tuples, and CPython untracks one nesting level
    per pass (a container is examined before what only it refers to):
    three passes cover tracks' pairs, then tracks and keys, then the step.
    One record with a ``meta`` dict or an enum member would stay tracked
    through any number of passes.
    """
    log = healthy_p2_cell_log()
    assert len(log._entries) < len(log) / 5  # steps carried the lock-step rows
    for _ in range(3):
        gc.collect()
    assert not any(map(gc.is_tracked, log._entries))


def test_add_step_allocates_a_constant_number_of_blocks():
    """A count, not a timing: a step over 127 tracks is one entry.

    ``tracks`` and ``keys`` tuples are stored by reference, so the cost of
    a step does not grow with the group (one row per track was 127 blocks).
    """
    n = 200
    tracks = tuple((f"sim{i}", i) for i in range(127))
    keys = tuple(f"sim{i}_k" for i in range(127))
    log = EventLog()
    starts = [float(i) for i in range(n)]  # allocated before the measurement
    log.add_step(tracks, EventKind.WRITE, -1.0, 0.5, 1e6, keys)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        blocks = sys.getallocatedblocks()
        for start in starts:
            log.add_step(tracks, EventKind.WRITE, start, 0.5, 1e6, keys)
        blocks = sys.getallocatedblocks() - blocks
    finally:
        if enabled:
            gc.enable()
    assert len(log) == 127 * (n + 1)
    assert blocks <= n + 32
    assert all(entry[0] is tracks and entry[5] is keys for entry in log._entries)
