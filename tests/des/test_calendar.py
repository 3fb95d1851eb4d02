"""Unit tests for the batched calendar-queue event core.

The contract under test is total-order equivalence with the binary
heap: ``CalendarQueue`` must serve ``(time, priority, seq, event)``
entries in exactly the tuple order ``heapq`` would, across bucket
boundaries, same-epoch insorts, and adaptive width resizes.
"""

from __future__ import annotations

import random

import pytest

from repro.des import CalendarQueue, Environment, set_default_core
from repro.des.calendar import _CUR_PUSH_LIMIT, _SPLIT_THRESHOLD


def drain(q):
    out = []
    while q:
        out.append(q.pop())
    return out


def entries_from(times):
    return [(t, 1, seq, None) for seq, t in enumerate(times)]


class TestOrdering:
    def test_empty_queue(self):
        q = CalendarQueue()
        assert len(q) == 0
        assert not q
        assert q.peek_time() == float("inf")
        with pytest.raises(IndexError):
            q.pop()

    def test_invalid_width(self):
        with pytest.raises(ValueError):
            CalendarQueue(width=0.0)
        with pytest.raises(ValueError):
            CalendarQueue(width=-1.0)

    @pytest.mark.parametrize("width", [1e-6, 0.1, 1.0, 1e3])
    def test_sorted_drain_matches_sort_any_width(self, width):
        rng = random.Random(7)
        entries = entries_from(rng.uniform(0.0, 50.0) for _ in range(2000))
        q = CalendarQueue(width=width)
        for e in entries:
            q.push(e)
        assert drain(q) == sorted(entries)

    def test_ties_break_by_priority_then_seq(self):
        entries = [
            (1.0, 1, 3, None),
            (1.0, 0, 4, None),
            (1.0, 1, 1, None),
            (1.0, 0, 2, None),
            (0.5, 1, 0, None),
        ]
        q = CalendarQueue()
        for e in entries:
            q.push(e)
        assert drain(q) == sorted(entries)

    def test_interleaved_push_pop_matches_heap(self):
        from heapq import heappop, heappush

        rng = random.Random(11)
        q = CalendarQueue(width=0.25)
        heap = []
        seq = 0
        popped_q, popped_h = [], []
        for _ in range(5000):
            if heap and rng.random() < 0.45:
                popped_q.append(q.pop())
                popped_h.append(heappop(heap))
            else:
                # Mimic the engine: never schedule into the past.
                now = popped_h[-1][0] if popped_h else 0.0
                t = now + rng.choice([0.0, rng.uniform(0.0, 3.0)])
                entry = (t, rng.choice([0, 1]), seq, None)
                seq += 1
                q.push(entry)
                heappush(heap, entry)
        while heap:
            popped_q.append(q.pop())
            popped_h.append(heappop(heap))
        assert popped_q == popped_h
        assert len(q) == 0

    def test_peek_time_tracks_minimum(self):
        q = CalendarQueue(width=0.5)
        q.push((3.0, 1, 0, None))
        assert q.peek_time() == 3.0
        q.push((1.25, 1, 1, None))
        assert q.peek_time() == 1.25
        q.pop()
        assert q.peek_time() == 3.0
        q.pop()
        assert q.peek_time() == float("inf")

    def test_push_into_served_epoch_preserves_order(self):
        # Pop one entry to load an epoch, then push entries into the
        # same epoch: they must slot into the unconsumed suffix.
        q = CalendarQueue(width=10.0)
        for e in entries_from([1.0, 2.0, 3.0]):
            q.push(e)
        assert q.pop()[0] == 1.0
        q.push((1.5, 1, 10, None))  # same epoch, before the suffix
        q.push((2.5, 0, 11, None))
        assert [e[0] for e in drain(q)] == [1.5, 2.0, 2.5, 3.0]


class TestAdaptiveWidth:
    def test_overfull_epoch_shrinks_width(self):
        n = _SPLIT_THRESHOLD + 100
        rng = random.Random(3)
        entries = entries_from(rng.uniform(0.0, 0.9) for _ in range(n))
        q = CalendarQueue(width=1.0)
        for e in entries:
            q.push(e)
        assert drain(q) == sorted(entries)
        assert q._width < 1.0

    def test_insort_pressure_shrinks_width(self):
        # Engine-style workload: every push lands just ahead of "now",
        # all inside one giant epoch. The queue must re-sample its
        # width instead of degrading to an insort-per-push.
        q = CalendarQueue(width=1e6)
        seq = 0
        q.push((0.0, 1, seq, None))
        now = 0.0
        for _ in range(3 * _CUR_PUSH_LIMIT):
            now = q.pop()[0]
            q.push((now + 0.001, 1, seq, None))
            seq += 1
        assert q._width < 1e6

    def test_resize_preserves_contents_and_order(self):
        rng = random.Random(5)
        entries = entries_from(rng.uniform(0.0, 100.0) for _ in range(500))
        q = CalendarQueue(width=1.0)
        for e in entries:
            q.push(e)
        q.pop()  # load an epoch so the current batch participates
        q._resize(0.01)
        assert len(q) == len(entries) - 1
        assert drain(q) == sorted(entries)[1:]


class TestEngineIntegration:
    def test_environment_core_selection(self):
        assert isinstance(Environment()._queue, list)
        assert isinstance(Environment(core="heap")._queue, list)
        assert isinstance(Environment(core="calendar")._queue, CalendarQueue)
        with pytest.raises(ValueError):
            Environment(core="wheel")

    def test_default_core_override(self):
        set_default_core("calendar")
        try:
            assert isinstance(Environment()._queue, CalendarQueue)
        finally:
            set_default_core(None)
        assert isinstance(Environment()._queue, list)

    def test_set_default_core_rejects_unknown(self):
        with pytest.raises(ValueError):
            set_default_core("wheel")

    @pytest.mark.parametrize("core", ["heap", "calendar"])
    def test_run_until_and_step(self, core):
        env = Environment(core=core)
        ticks = []

        def clock():
            while True:
                yield env.timeout(1.0)
                ticks.append(env.now)

        env.process(clock())
        env.run(until=3.5)
        assert ticks == [1.0, 2.0, 3.0]
        # step() keeps working after run(until): the 4.0 tick is pending.
        env.step()
        env.step()
        assert ticks[-2:] == [4.0, 5.0]

    def test_cores_produce_identical_event_streams(self):
        def workload(env, trace):
            def worker(k):
                for i in range(40):
                    yield env.timeout(0.01 * (k + 1))
                    trace.append((round(env.now, 9), k, i))

            for k in range(8):
                env.process(worker(k))
            env.run()

        traces = {}
        for core in ("heap", "calendar"):
            trace = []
            workload(Environment(core=core), trace)
            traces[core] = trace
        assert traces["heap"] == traces["calendar"]
