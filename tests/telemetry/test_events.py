"""Tests for event records and the event log."""

import pytest

from repro.errors import ReproError
from repro.telemetry import EventKind, EventLog, EventRecord


def rec(component="sim", kind=EventKind.COMPUTE, start=0.0, duration=1.0, **kw):
    return EventRecord(component=component, kind=kind, start=start, duration=duration, **kw)


def test_record_end_and_throughput():
    r = rec(kind=EventKind.WRITE, start=2.0, duration=0.5, nbytes=1e6)
    assert r.end == 2.5
    assert r.throughput == pytest.approx(2e6)


def test_zero_duration_throughput_is_zero():
    assert rec(kind=EventKind.READ, duration=0.0, nbytes=10).throughput == 0.0


def test_record_validation():
    with pytest.raises(ReproError):
        rec(duration=-1.0)
    with pytest.raises(ReproError):
        rec(nbytes=-5)


def test_nan_duration_and_size_are_rejected_everywhere():
    # `x < 0` is false for NaN; one stored NaN poisons makespan and throughput.
    nan = float("nan")
    log = EventLog()
    for bad in ({"duration": nan}, {"duration": 1.0, "nbytes": nan}):
        with pytest.raises(ReproError, match="nan"):
            rec(**bad)
        with pytest.raises(ReproError, match="nan"):
            log.add("sim", EventKind.WRITE, start=0.0, **bad)
    with pytest.raises(ReproError, match="negative duration nan for sim0"):
        log.add_step([("sim0", 0), ("sim1", 1)], EventKind.COMPUTE, 0.0, nan)
    with pytest.raises(ReproError, match="negative duration -1.0 for sim0"):
        log.add_step([("sim0", 0), ("sim1", 1)], EventKind.COMPUTE, 0.0, -1.0)
    # record() takes only constructed records, and construction rejects NaN.
    with pytest.raises(ReproError):
        log.record(rec(duration=nan))
    assert len(log) == 0


def test_add_step_appends_one_record_per_track_in_order():
    log = EventLog()
    log.add_step([("sim0", 0), ("sim1", 1)], EventKind.COMPUTE, 2.0, 0.5)
    assert list(log) == [
        rec("sim0", start=2.0, duration=0.5, rank=0),
        rec("sim1", start=2.0, duration=0.5, rank=1),
    ]


def test_add_step_carries_nbytes_and_one_key_per_track():
    log = EventLog()
    log.add_step((("sim0", 0), ("sim1", 1)), EventKind.WRITE, 2.0, 0.5, 8.0, ["a", "b"])
    assert list(log) == [
        rec("sim0", EventKind.WRITE, start=2.0, duration=0.5, rank=0, nbytes=8.0, key="a"),
        rec("sim1", EventKind.WRITE, start=2.0, duration=0.5, rank=1, nbytes=8.0, key="b"),
    ]
    with pytest.raises(ReproError, match="1 keys for 2 tracks"):
        log.add_step((("sim0", 0), ("sim1", 1)), EventKind.WRITE, 2.0, 0.5, 8.0, ["a"])
    with pytest.raises(ReproError, match="negative nbytes -8.0 for sim0"):
        log.add_step((("sim0", 0), ("sim1", 1)), EventKind.WRITE, 2.0, 0.5, -8.0)
    assert len(log) == 2


def test_empty_step_is_a_noop_but_still_validated():
    # An empty step used to raise IndexError from tracks[0][0].
    log = EventLog()
    log.add_step([], EventKind.COMPUTE, 0.0, 1.0)
    log.add_step((), EventKind.WRITE, 0.0, 1.0, 8.0, [])
    assert len(log) == 0 and list(log) == [] and log.to_jsonl() == ""
    with pytest.raises(ReproError, match=r"negative duration nan for \?"):
        log.add_step([], EventKind.COMPUTE, 0.0, float("nan"))
    with pytest.raises(ReproError, match=r"negative duration -1.0 for \?"):
        log.add_step([], EventKind.COMPUTE, 0.0, -1.0)
    with pytest.raises(ReproError, match=r"negative nbytes -1.0 for \?"):
        log.add_step([], EventKind.COMPUTE, 0.0, 1.0, -1.0)


@pytest.mark.parametrize("kind", ["compute", None, 3])
def test_a_kind_that_is_not_an_event_kind_is_rejected_at_append_time(kind):
    # It used to be stored and to fail later, inside to_jsonl.
    log = EventLog()
    for append in (
        lambda: log.add("sim", kind, 0.0, 1.0),
        lambda: log.add_step([("sim", 0)], kind, 0.0, 1.0),
        lambda: log.record(rec(kind=kind)),  # the dataclass does not check
    ):
        with pytest.raises(ReproError, match="kind must be an EventKind"):
            append()
    assert len(log) == 0 and log.to_jsonl() == ""


def test_log_record_and_len():
    log = EventLog()
    log.record(rec())
    log.add("ai", EventKind.TRAIN, start=1.0, duration=0.1)
    assert len(log) == 2
    assert log[1].component == "ai"


def test_log_filter_by_component_kind_rank():
    log = EventLog(
        [
            rec("sim", EventKind.COMPUTE, rank=0),
            rec("sim", EventKind.WRITE, rank=1),
            rec("ai", EventKind.READ, rank=0),
        ]
    )
    assert len(log.filter(component="sim")) == 2
    assert len(log.filter(kind=EventKind.WRITE)) == 1
    assert len(log.filter(rank=0)) == 2
    assert len(log.filter(component="sim", rank=0)) == 1
    assert len(log.filter(kinds=(EventKind.WRITE, EventKind.READ))) == 2


def test_log_filter_kind_and_kinds_conflict():
    log = EventLog()
    with pytest.raises(ReproError):
        log.filter(kind=EventKind.WRITE, kinds=(EventKind.READ,))


def test_log_components_ordered_by_first_seen():
    log = EventLog([rec("b"), rec("a"), rec("b")])
    assert log.components() == ["b", "a"]


def test_log_span_and_makespan():
    log = EventLog([rec(start=1.0, duration=2.0), rec(start=0.5, duration=0.2)])
    assert log.span() == (0.5, 3.0)
    assert log.makespan() == 2.5


def test_empty_log_span_raises():
    from repro.errors import EmptyLogError, ReproError

    with pytest.raises(EmptyLogError, match="empty event log"):
        EventLog().span()
    with pytest.raises(EmptyLogError, match="empty event log"):
        EventLog().makespan()
    # EmptyLogError is catchable as the library-wide base class.
    assert issubclass(EmptyLogError, ReproError)
    # durations() keeps its documented empty sentinel.
    assert EventLog().durations() == []


def test_log_total_bytes():
    log = EventLog(
        [
            rec(kind=EventKind.WRITE, nbytes=100),
            rec(kind=EventKind.READ, nbytes=50),
        ]
    )
    assert log.total_bytes() == 150


def test_log_extend():
    a = EventLog([rec("x")])
    b = EventLog([rec("y")])
    a.extend(b)
    assert len(a) == 2


def test_jsonl_round_trip(tmp_path):
    log = EventLog(
        [
            rec("sim", EventKind.WRITE, start=1.5, duration=0.25, rank=3, nbytes=1024, key="k1"),
            rec("ai", EventKind.TRAIN, start=2.0, duration=0.061),
        ]
    )
    path = tmp_path / "events.jsonl"
    log.save(path)
    loaded = EventLog.load(path)
    assert len(loaded) == 2
    assert loaded[0] == log[0]
    assert loaded[1] == log[1]


def test_from_jsonl_skips_blank_lines():
    log = EventLog([rec()])
    text = log.to_jsonl() + "\n\n"
    assert len(EventLog.from_jsonl(text)) == 1
