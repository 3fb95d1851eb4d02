"""Lease-table state machine: claims, expiry stealing, poison, replay."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.sweep.dist.lease import LeaseTable, PointState
from repro.sweep.dist.protocol import FailureRecord


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, dt):
        self.now += dt


def fail(worker="w", error="RuntimeError: boom"):
    return FailureRecord(worker=worker, error=error)


def make_table(n=4, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("lease_seconds", 10.0)
    table = LeaseTable(range(n), clock=clock, **kwargs)
    return table, clock


class TestClaim:
    def test_claims_in_queue_order(self):
        table, _ = make_table(3)
        assert [table.claim("w") for _ in range(3)] == [0, 1, 2]
        assert table.claim("w") is None

    def test_claim_moves_point_to_leased(self):
        table, _ = make_table(1)
        index = table.claim("w")
        record = table.records[index]
        assert record.state is PointState.LEASED
        assert record.worker == "w"
        assert record.leases == 1

    def test_claim_prefers_points_not_failed_on_this_worker(self):
        table, _ = make_table(2, poison_failures=10, poison_workers=10)
        assert table.claim("w1") == 0
        table.fail("w1", 0, fail("w1"))  # requeued at the back: queue = [1, 0]
        # w1 gets 1 (never failed there); w2 is offered 0 first.
        assert table.claim("w1") == 1
        assert table.claim("w2") == 0

    def test_failed_point_offered_back_when_nothing_else(self):
        table, _ = make_table(1, poison_failures=10, poison_workers=10)
        table.claim("w1")
        table.fail("w1", 0, fail("w1"))
        assert table.claim("w1") == 0  # only point left; better than idling

    def test_duplicate_indices_rejected(self):
        with pytest.raises(SweepError):
            LeaseTable([1, 1])


class TestExpiry:
    def test_expired_lease_is_reclaimed_and_stolen(self):
        events = []
        table, clock = make_table(
            1, lease_seconds=5.0, observer=lambda event, record: events.append(event)
        )
        assert table.claim("w1") == 0
        clock.advance(5.1)
        assert table.claim("w2") == 0  # stolen
        record = table.records[0]
        assert record.worker == "w2"
        assert record.leases == 2
        assert events.count("reclaim") == 1

    def test_renewal_extends_the_lease(self):
        table, clock = make_table(1, lease_seconds=5.0)
        table.claim("w1")
        clock.advance(4.0)
        assert table.renew("w1", 0) is True
        clock.advance(4.0)  # 8s total, but renewed at 4s
        assert table.reclaim_expired() == []
        assert table.records[0].worker == "w1"

    def test_renew_rejects_non_holder_and_non_leased(self):
        table, _ = make_table(2)
        table.claim("w1")
        assert table.renew("w2", 0) is False  # not the holder
        assert table.renew("w1", 1) is False  # still queued
        assert table.renew("w1", 99) is False  # unknown index

    def test_reclamation_ordering_lowest_index_first(self):
        # Satellite: expired points must re-queue lowest-index-first at
        # the FRONT of the queue, ahead of never-leased points.
        table, clock = make_table(5, lease_seconds=2.0)
        assert table.claim("dead") == 0
        assert table.claim("dead2") == 1
        assert table.claim("dead3") == 2  # queue now holds [3, 4]
        clock.advance(2.5)
        assert table.reclaim_expired() == [0, 1, 2]
        assert [table.claim("w") for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_reclaim_expired_is_idempotent(self):
        table, clock = make_table(1, lease_seconds=1.0)
        table.claim("w1")
        clock.advance(1.5)
        assert table.reclaim_expired() == [0]
        assert table.reclaim_expired() == []


class TestCompletion:
    def test_complete_is_first_writer_wins(self):
        table, _ = make_table(1)
        table.claim("w1")
        assert table.complete("w1", 0) is True
        assert table.complete("w2", 0) is False  # duplicate
        assert table.records[0].state is PointState.DONE
        assert table.records[0].worker == "w1"

    def test_stale_worker_completion_accepted_after_steal(self):
        # w1's lease expired and w2 now holds the point; w1 finishing
        # anyway is a valid result (points are deterministic).
        table, clock = make_table(1, lease_seconds=1.0)
        table.claim("w1")
        clock.advance(1.5)
        table.claim("w2")
        assert table.complete("w1", 0) is True
        assert table.complete("w2", 0) is False
        assert table.done()

    def test_complete_from_queued_state(self):
        table, _ = make_table(2)
        assert table.complete("w", 1) is True  # never leased: journal-style
        assert [table.claim("w")] == [0]

    def test_unknown_index_raises(self):
        table, _ = make_table(1)
        with pytest.raises(SweepError):
            table.complete("w", 7)


class TestPoison:
    def test_distinct_worker_threshold_quarantines(self):
        table, _ = make_table(1, poison_workers=2, poison_failures=10)
        table.claim("w1")
        assert table.fail("w1", 0, fail("w1")) is PointState.QUEUED
        table.claim("w2")
        assert table.fail("w2", 0, fail("w2")) is PointState.POISONED
        assert table.done()
        assert [r.index for r in table.poisoned()] == [0]

    def test_total_failure_cap_bounds_single_worker_livelock(self):
        table, _ = make_table(1, poison_workers=5, poison_failures=3)
        for attempt in range(3):
            table.claim("w1")
            state = table.fail("w1", 0, fail("w1"))
        assert state is PointState.POISONED
        assert len(table.records[0].failures) == 3

    def test_same_worker_failures_count_once_toward_worker_threshold(self):
        table, _ = make_table(1, poison_workers=2, poison_failures=10)
        table.claim("w1")
        table.fail("w1", 0, fail("w1"))
        table.claim("w1")
        assert table.fail("w1", 0, fail("w1")) is PointState.QUEUED
        assert table.records[0].failed_workers == {"w1"}

    def test_failure_on_terminal_point_ignored(self):
        table, _ = make_table(1)
        table.claim("w1")
        table.complete("w1", 0)
        assert table.fail("w2", 0, fail("w2")) is PointState.DONE

    def test_poisoned_point_keeps_tracebacks(self):
        table, _ = make_table(1, poison_workers=1)
        table.claim("w1")
        record = FailureRecord(worker="w1", error="ValueError: x", traceback="tb")
        table.fail("w1", 0, record)
        assert table.records[0].failures[0].traceback == "tb"


class TestObserverAndPreload:
    def test_observer_sees_lifecycle_events(self):
        events = []
        clock = FakeClock()
        table = LeaseTable(
            [0], lease_seconds=1.0, clock=clock,
            observer=lambda event, record: events.append((event, record.index)),
        )
        table.claim("w1")
        clock.advance(1.5)
        table.reclaim_expired()
        table.claim("w2")
        table.complete("w2", 0)
        assert events == [("lease", 0), ("reclaim", 0), ("lease", 0), ("done", 0)]

    def test_preload_done_skips_execution(self):
        table, _ = make_table(2)
        table.preload_done(0)
        assert table.records[0].state is PointState.DONE
        assert table.claim("w") == 1
        with pytest.raises(SweepError):
            table.preload_done(0)  # already terminal

    def test_counts_and_remaining(self):
        table, _ = make_table(3, poison_workers=1)
        table.claim("w")
        table.complete("w", 0)
        table.claim("w")
        table.fail("w", 1, fail())
        counts = table.counts()
        assert counts == {"queued": 1, "leased": 0, "done": 1, "poisoned": 1}
        assert table.remaining() == 1
        assert not table.done()


# -- counters and the deadline bound vs a recount over records -----------------
_OPS = st.one_of(
    st.tuples(st.just("claim"), st.sampled_from(["a", "b", "c"])),
    st.tuples(st.just("renew"), st.integers(0, 5)),  # k-th held lease, by its holder
    st.tuples(st.just("renew-as"), st.sampled_from(["a", "b", "c"]), st.integers(0, 5)),
    st.tuples(st.just("complete"), st.sampled_from(["a", "b", "c"]), st.integers(0, 5)),
    st.tuples(st.just("fail"), st.sampled_from(["a", "b", "c"]), st.integers(0, 5)),
    st.tuples(st.just("preload"), st.integers(0, 5)),
    st.tuples(st.just("reclaim")),
    # Steps around the 10 s lease: most leave leases alive, some expire
    # only the un-renewed ones, a few expire everything.
    st.tuples(st.just("advance"), st.sampled_from([0.0, 1.0, 4.0, 6.0, 11.0])),
)


def _recount(table):
    counts = {state.value: 0 for state in PointState}
    for record in table.records.values():
        counts[record.state.value] += 1
    return counts


def _expired_by_scan(table, now):
    return sorted(
        r.index
        for r in table.records.values()
        if r.state is PointState.LEASED and r.deadline <= now
    )


@settings(max_examples=300, deadline=None)
@given(st.lists(_OPS, max_size=60))
def test_counters_and_reclaim_agree_with_full_scan(ops):
    reclaimed = []

    def observer(event, record):
        if event == "reclaim":
            reclaimed.append(record.index)

    table, clock = make_table(6, poison_workers=2, poison_failures=3, observer=observer)
    for op in ops:
        kind = op[0]
        if kind == "advance":
            clock.advance(op[1])
        elif kind == "claim":
            # claim() reclaims first: it must steal what a scan would.
            expected = _expired_by_scan(table, clock.now)
            before = len(reclaimed)
            table.claim(op[1])
            assert sorted(reclaimed[before:]) == expected
        elif kind == "renew":
            held = [r for r in table.records.values() if r.state is PointState.LEASED]
            if held:
                record = held[op[1] % len(held)]
                assert table.renew(record.worker, record.index)
        elif kind == "renew-as":
            table.renew(op[1], op[2])
        elif kind == "complete":
            table.complete(op[1], op[2])
        elif kind == "fail":
            table.fail(op[1], op[2], fail(worker=op[1]))
        elif kind == "preload":
            if table.records[op[1]].state is PointState.QUEUED:
                table.preload_done(op[1])
        else:
            expected = _expired_by_scan(table, clock.now)
            assert table.reclaim_expired() == expected
        # The cached bound may be stale-low (one wasted scan), never
        # stale-high (a hidden expiry).
        assert table._earliest_deadline <= min(
            (r.deadline for r in table.records.values() if r.state is PointState.LEASED),
            default=float("inf"),
        )
        counts = _recount(table)
        assert table.counts() == counts
        assert table.remaining() == counts["queued"] + counts["leased"]
        assert table.done() == (table.remaining() == 0)
        assert [r.index for r in table.poisoned()] == sorted(
            i for i, r in table.records.items() if r.state is PointState.POISONED
        )
