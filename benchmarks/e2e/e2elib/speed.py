"""Host-speed calibration: seconds at the reference speed.

The sandbox this benchmark runs in switches between speed levels (1x,
~1.6x, ~2.4x slower) every 0.2-1 s, in proportions that drift over
minutes; steal time stays 0. Raw medians of 15 s runs of one commit
moved by 50 % between runs (README, "Noise"). Every end-to-end time is
therefore measured in *segments* bracketed by a fixed ~4 ms piece of
interpreter work, and divided by how slow that work ran.
"""

from __future__ import annotations

import heapq
import time


def interpreter_unit(n: int = 6000) -> int:
    """A fixed piece of interpreter work shaped like an event loop: heap
    pushes and pops, generator switches, small tuples, strings and a dict.

    Like :func:`copy_unit` it calls nothing of the program under test,
    so no change to the program can move it.
    """
    heap: list = []
    push, pop = heapq.heappush, heapq.heappop

    def consumer():
        total = 0
        while True:
            item = yield total
            total += item[0]

    sink = consumer()
    next(sink)
    table = {}
    for i in range(n):
        push(heap, ((i * 7919) % 1013, i, None))
        if i & 1:
            item = pop(heap)
            sink.send(item)
            table[item[1]] = (item[0], str(i))
    return len(table)


_COPY_SOURCE = bytes(8 << 20)


def copy_unit() -> int:
    """A fixed piece of bulk-byte work shaped like a staged payload's
    trip: 64 KiB slices, a join, and two whole-buffer copies (32 MiB moved).

    The staging workload is bound by memory traffic, which slows down
    under a neighbour's load at other moments than the interpreter does.
    """
    chunks = [_COPY_SOURCE[i:i + 65536] for i in range(0, len(_COPY_SOURCE), 65536)]
    return len(bytes(bytearray(b"".join(chunks))))


#: kind -> (unit, seconds it takes on the reference host in its quiet
#: phase). Only ratios between runs matter; the constants just keep the
#: results in the neighbourhood of real seconds.
UNITS = {
    "interpreter": (interpreter_unit, 0.0042),
    "copy": (copy_unit, 0.0027),  # with the staging workload's pinned malloc policy
}


class SpeedClock:
    """Times segments of work in seconds *at the reference host speed*.

    A calibration unit (~4 ms, see :data:`UNITS`) is run at every
    segment boundary, and a segment's time is divided by
    ``mean(unit before, unit after) / reference``. Segments are kept
    shorter than the speed phases: a workload is cut where it has a
    boundary to offer. Calibration time itself is in no segment.
    """

    def __init__(self, kind: str = "interpreter") -> None:
        self.unit, self.reference_s = UNITS[kind]
        for _ in range(3):  # the first executions run slow (cold caches)
            self.unit()
        self.reset()

    def reset(self) -> None:
        self.raw_s = 0.0
        self.norm_s = 0.0

    def _unit_seconds(self) -> float:
        start = time.perf_counter()
        self.unit()
        return time.perf_counter() - start

    def start(self) -> None:
        self._unit = self._unit_seconds()
        self._began = time.perf_counter()

    def lap(self, raw: bool = False) -> float:
        """Close the segment begun by the last ``start``/``lap``; returns
        the factor (>1 = host slower than the reference) it was scaled by.

        ``raw`` closes it at factor 1: for a segment that is process
        start and file I/O, not interpreter work (the sweep service
        child coming up). Its seconds do not follow the interpreter's
        speed: ten runs in a noisy quarter of an hour spread by 5 % raw
        and by 23 % divided by the units around them.
        """
        seconds = time.perf_counter() - self._began
        unit = self._unit_seconds()
        factor = 1.0 if raw else (self._unit + unit) / (2 * self.reference_s)
        self.raw_s += seconds
        self.norm_s += seconds / factor
        self._unit = unit
        self._began = time.perf_counter()
        return factor


class Samples(list):
    """Raw seconds that become reference-speed seconds when their segment closes."""

    settled = 0

    def settle(self, factor: float) -> None:
        for i in range(self.settled, len(self)):
            self[i] /= factor
        self.settled = len(self)

    def add_settled(self, values) -> None:
        """Append durations that are already at the reference speed."""
        assert self.settled == len(self), "an open segment holds raw samples"
        self.extend(values)
        self.settled = len(self)

    def clear(self) -> None:
        super().clear()
        self.settled = 0
