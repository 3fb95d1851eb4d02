"""Self-time arithmetic of the harness-side spans."""

from __future__ import annotations

import pytest
from e2elib.spans import NullRecorder, SpanRecorder, by_name, covered, self_times


def span(index, name, start, end, parent=None):
    return {"index": index, "name": name, "id": None, "parent": parent,
            "start": start, "end": end}


def test_cover_is_a_union_clipped_to_the_parent():
    assert covered([], 0.0, 10.0) == 0.0
    assert covered([(1.0, 3.0), (5.0, 6.0)], 0.0, 10.0) == pytest.approx(3.0)
    assert covered([(1.0, 4.0), (3.0, 6.0)], 0.0, 10.0) == pytest.approx(5.0)  # overlap once
    assert covered([(2.0, 3.0), (1.0, 8.0)], 0.0, 10.0) == pytest.approx(7.0)  # nested
    assert covered([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)  # clipped


def test_self_time_with_overlapping_children():
    spans = [
        span(0, "sweep_point", 0.0, 10.0),
        span(1, "run", 1.0, 4.0, parent=0),
        span(2, "run", 3.0, 6.0, parent=0),  # overlaps span 1 for one second
        span(3, "store", 3.5, 4.5, parent=2),
        span(4, "open", 7.0, None, parent=0),  # never finished: no cover, no self time
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - 5.0)
    assert own[1] == pytest.approx(3.0)
    assert own[2] == pytest.approx(3.0 - 1.0)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == 0.0
    table = by_name(spans)
    assert table["run"] == {"count": 2, "total_s": pytest.approx(6.0), "self_s": pytest.approx(5.0)}
    assert "open" not in table


def test_recorder_links_parents_and_null_recorder_records_nothing():
    rec = SpanRecorder()
    with rec.span("outer", id="cell-1"):
        with rec.span("inner", id="cell-1"):
            pass
        with rec.span("inner", id="cell-1"):
            pass
    with rec.span("outer", id="cell-2"):
        pass
    assert [s["parent"] for s in rec.spans] == [None, 0, 0, None]
    assert all(s["end"] >= s["start"] for s in rec.spans)
    assert sum(self_times(rec.spans)) == pytest.approx(
        sum(s["end"] - s["start"] for s in rec.spans if s["parent"] is None))
    null = NullRecorder()
    with null.span("anything", id=1) as record:
        assert record is None
    assert not null.enabled and rec.enabled
