"""The row-store EventLog against a list-of-EventRecord reference model.

The model is the pre-row-store implementation reduced to its essentials:
every record is an :class:`EventRecord` held in a list and every query
goes through the record's attributes. Hypothesis drives both through the
same operations and requires equal records, equal answers, equal errors
and byte-equal JSONL.
"""

import gc
import json
import pickle
import sys
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import EmptyLogError, ReproError
from repro.telemetry import EventKind, EventLog, EventRecord


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
OPS = st.lists(
    st.tuples(st.sampled_from(["add", "add_step", "record", "extend"]), FIELDS), max_size=25
)
FILTERS = st.fixed_dictionaries(
    {},
    optional={
        "component": st.one_of(st.none(), COMPONENTS),
        "kind": st.one_of(st.none(), KINDS),
        "kinds": st.one_of(st.none(), st.lists(KINDS, max_size=3)),
        "rank": st.one_of(st.none(), RANKS),
    },
)


def build(ops):
    """Apply ``ops`` to a real log and the model; invalid ones to neither."""
    log, model = EventLog(), ModelLog()
    for op, (component, kind, start, duration, optional) in ops:
        if op == "add_step":
            # One step of a two-rank lock-step group: shared kind, start
            # and duration, validated once, appended in track order.
            rank = optional.get("rank", 0)
            tracks = [(component, rank), ("sim1", rank + 1)]
            try:
                records = [EventRecord(c, kind, start, duration, rank=r) for c, r in tracks]
            except ReproError as err:
                with pytest.raises(ReproError) as caught:
                    log.add_step(tracks, kind, start, duration)
                assert str(caught.value) == str(err)
                continue
            log.add_step(tracks, kind, start, duration)
            model.records.extend(records)
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
@given(ops=OPS, where=FILTERS, index=st.integers(-30, 30), cut=st.tuples(
    st.one_of(st.none(), st.integers(-30, 30)), st.one_of(st.none(), st.integers(-30, 30))))
def test_eventlog_matches_reference_model(ops, where, index, cut):
    log, model = build(ops)
    assert_same(log, model)

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


def test_filtered_log_is_independent_of_its_source():
    log = EventLog()
    log.add("sim", EventKind.COMPUTE, 0.0, 1.0)
    everything = log.filter()
    everything.add("sim", EventKind.COMPUTE, 1.0, 1.0)
    assert (len(log), len(everything)) == (1, 2)


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
