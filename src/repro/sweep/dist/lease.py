"""Lease table: the sweep service's per-job point state machine.

Every grid point moves through::

            claim                    complete
    QUEUED --------> LEASED --------------------> DONE
      ^                |  \\
      |     expiry     |   \\  terminal failure
      +--- (reclaim) --+    \\
      ^                      v
      +---- requeue ---- [failed] ----> POISONED
                         (below the      (>= poison_workers distinct
                          thresholds)     workers, or >= poison_failures
                                          total failures)

DONE and POISONED are terminal. Leases are **time-bounded**: a worker
that stops renewing (crash, partition, SIGKILL) loses the point at its
deadline and the next claimer steals it — that is the whole
fault-tolerance story, there is no worker liveness bookkeeping beyond
the leases themselves. Completion is **idempotent and first-writer-wins**:
a stale worker finishing a point that was already reclaimed and finished
elsewhere gets a duplicate-ack, never an error, because points are
deterministic functions of their kwargs (any result is *the* result).

The table is not itself thread-safe; the service serializes access
under its command-execution lock (see
:class:`~repro.transport.server.RespTcpServer`). Time is injected
(``clock``) so expiry ordering is unit-testable without sleeping.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Optional

from repro.errors import SweepError
from repro.sweep.dist.protocol import FailureRecord


class PointState(str, Enum):
    """Lifecycle of one grid point on the coordinator."""

    QUEUED = "queued"
    LEASED = "leased"
    DONE = "done"
    POISONED = "poisoned"


@dataclass
class PointRecord:
    """Everything the coordinator tracks about one point."""

    index: int
    state: PointState = PointState.QUEUED
    worker: Optional[str] = None
    deadline: float = 0.0
    leases: int = 0  # how many times this point has been handed out
    failures: list[FailureRecord] = field(default_factory=list)

    @property
    def failed_workers(self) -> set[str]:
        return {f.worker for f in self.failures}


class LeaseTable:
    """Queued/leased/done/poisoned bookkeeping with time-bounded leases.

    ``observer(event, record)`` is called on every state transition
    (``lease``, ``renew``, ``reclaim``, ``done``, ``requeue``,
    ``poison``) — the service hangs its audit trail, its tallies and
    the engine's progress reporting off it.

    The ready queue is a deque of ``(index, generation)`` entries plus a
    liveness map ``index -> generation``: removing a point just drops it
    from the map (O(1)) and the stale deque entry is skipped when it
    surfaces, instead of ``deque.remove``'s O(n) scan-and-shift per
    claim/complete/fail. Generations make re-queued points unambiguous —
    a point that is lazily discarded and later re-queued gets a fresh
    generation, so its abandoned earlier entry can never resurrect it
    out of order. Live entries keep the exact order the eager-removal
    implementation produced (lowest-index-first reclaim at the front,
    requeues at the back).

    Thread-safety: none of its own — the table assumes the caller
    serializes every call (the service drives it from under its RESP
    dispatch lock). Durability: none — this is the *in-memory* half
    of the state machine; the store
    (:class:`~repro.sweep.dist.store.SweepStore`) is the durable record,
    written by the caller before acks go out.
    """

    def __init__(
        self,
        indices: Iterable[int],
        lease_seconds: float = 5.0,
        poison_workers: int = 2,
        poison_failures: int = 4,
        clock: Callable[[], float] = time.monotonic,
        observer: Optional[Callable[[str, PointRecord], None]] = None,
    ) -> None:
        if lease_seconds <= 0:
            raise SweepError(f"lease_seconds must be positive, got {lease_seconds}")
        if min(poison_workers, poison_failures) < 1:
            raise SweepError("poison thresholds must be >= 1")
        self.lease_seconds = lease_seconds
        self.poison_workers = poison_workers
        self.poison_failures = poison_failures
        self.clock = clock
        self.observer = observer
        self.records: dict[int, PointRecord] = {}
        self._queue: deque[tuple[int, int]] = deque()
        self._live: dict[int, int] = {}  # index -> generation of its live entry
        self._generation = 0
        self._done = 0
        self._poisoned = 0
        #: Lower bound on the earliest deadline of any LEASED record:
        #: lowered on lease, recomputed by a real scan, never raised by
        #: renew/complete/fail (a stale-low bound costs one scan, a
        #: stale-high one would hide an expiry).
        self._earliest_deadline = math.inf
        for index in indices:
            if index in self.records:
                raise SweepError(f"duplicate point index {index}")
            self.records[index] = PointRecord(index)
            self._queue_append(index)

    # -- helpers -----------------------------------------------------------
    def _notify(self, event: str, record: PointRecord) -> None:
        if self.observer is not None:
            self.observer(event, record)

    def _queue_append(self, index: int, left: bool = False) -> None:
        self._generation += 1
        generation = self._generation
        self._live[index] = generation
        if left:
            self._queue.appendleft((index, generation))
        else:
            self._queue.append((index, generation))

    def _queue_discard(self, index: int) -> None:
        """O(1) removal: kill the liveness entry; the deque entry dies lazily."""
        self._live.pop(index, None)

    def _queue_compact(self) -> None:
        """Drop dead entries off the queue head so peeking sees live work."""
        queue = self._queue
        live = self._live
        while queue:
            index, generation = queue[0]
            if live.get(index) == generation:
                break
            queue.popleft()

    def _terminal(self, record: PointRecord) -> bool:
        return record.state in (PointState.DONE, PointState.POISONED)

    # -- queries -----------------------------------------------------------
    # All O(1): every QUEUED record has exactly one live queue entry,
    # and the terminal states are counted where they are entered.
    def done(self) -> bool:
        """Every point reached a terminal state (DONE or POISONED)."""
        return self.remaining() == 0

    def counts(self) -> dict[str, int]:
        queued = len(self._live)
        return {
            PointState.QUEUED.value: queued,
            PointState.LEASED.value: self.remaining() - queued,
            PointState.DONE.value: self._done,
            PointState.POISONED.value: self._poisoned,
        }

    def remaining(self) -> int:
        return len(self.records) - self._done - self._poisoned

    def poisoned(self) -> list[PointRecord]:
        if not self._poisoned:
            return []
        return [
            self.records[i]
            for i in sorted(self.records)
            if self.records[i].state is PointState.POISONED
        ]

    # -- transitions -------------------------------------------------------
    def reclaim_expired(self) -> list[int]:
        """Steal back every expired lease, in index order.

        Reclaimed points go to the *front* of the queue (they are the
        oldest outstanding work), lowest index first, so recovery from a
        dead worker re-issues its points before fresh ones.
        """
        now = self.clock()
        if now < self._earliest_deadline:
            return []  # no lease can have expired yet
        expired = []
        earliest = math.inf
        for record in self.records.values():
            if record.state is PointState.LEASED:
                if record.deadline <= now:
                    expired.append(record.index)
                elif record.deadline < earliest:
                    earliest = record.deadline
        self._earliest_deadline = earliest
        expired.sort()
        for index in reversed(expired):  # appendleft reverses again
            record = self.records[index]
            record.state = PointState.QUEUED
            record.worker = None
            record.deadline = 0.0
            self._queue_append(index, left=True)
            self._notify("reclaim", record)
        return expired

    def claim(self, worker: str) -> Optional[int]:
        """Lease the next claimable point to ``worker`` (None = nothing now).

        Prefers points that have *not* already failed on this worker
        (work-stealing another worker's poison draft does nobody any
        good); hands an already-failed one out only when nothing else is
        queued, relying on the total-failure poison cap to terminate.
        """
        self.reclaim_expired()
        self._queue_compact()
        live = self._live
        chosen: Optional[int] = None
        first_live: Optional[int] = None
        for index, generation in self._queue:
            if live.get(index) != generation:
                continue  # lazily-discarded entry
            if first_live is None:
                first_live = index
            if worker not in self.records[index].failed_workers:
                chosen = index
                break
        if chosen is None:
            chosen = first_live
        if chosen is None:
            return None
        self._queue_discard(chosen)
        record = self.records[chosen]
        record.state = PointState.LEASED
        record.worker = worker
        record.deadline = self.clock() + self.lease_seconds
        if record.deadline < self._earliest_deadline:
            self._earliest_deadline = record.deadline
        record.leases += 1
        self._notify("lease", record)
        return chosen

    def renew(self, worker: str, index: int) -> bool:
        """Heartbeat: extend the lease iff ``worker`` still holds it."""
        record = self.records.get(index)
        if record is None or record.state is not PointState.LEASED:
            return False
        if record.worker != worker:
            return False
        record.deadline = self.clock() + self.lease_seconds
        self._notify("renew", record)
        return True

    def complete(self, worker: str, index: int) -> bool:
        """Mark ``index`` DONE; False means a duplicate (already terminal).

        Accepts results from stale leases (expired, reclaimed, even
        currently re-leased to someone else): the computation is
        deterministic, so the first finisher's result stands and later
        ones are acknowledged and discarded.
        """
        record = self.records.get(index)
        if record is None:
            raise SweepError(f"unknown point index {index}")
        if self._terminal(record):
            return False
        if record.state is PointState.QUEUED:
            self._queue_discard(index)
        record.state = PointState.DONE
        self._done += 1
        record.worker = worker
        record.deadline = 0.0
        self._notify("done", record)
        return True

    def fail(self, worker: str, index: int, failure: FailureRecord) -> PointState:
        """Record a terminal worker-side failure; requeue or poison.

        Returns the point's resulting state (QUEUED = requeued for
        another worker, POISONED = quarantined). Failures reported for
        already-terminal points are ignored (stale workers).
        """
        record = self.records.get(index)
        if record is None:
            raise SweepError(f"unknown point index {index}")
        if self._terminal(record):
            return record.state
        record.failures.append(failure)
        record.worker = None
        record.deadline = 0.0
        if record.state is PointState.QUEUED:
            self._queue_discard(index)
        if (
            len(record.failed_workers) >= self.poison_workers
            or len(record.failures) >= self.poison_failures
        ):
            record.state = PointState.POISONED
            self._poisoned += 1
            self._notify("poison", record)
        else:
            record.state = PointState.QUEUED
            self._queue_append(index)
            self._notify("requeue", record)
        return record.state

    def preload_done(self, index: int) -> None:
        """Mark a point DONE before serving (restored from the store)."""
        record = self.records.get(index)
        if record is None:
            raise SweepError(f"unknown point index {index}")
        if record.state is not PointState.QUEUED:
            raise SweepError(f"point {index} already {record.state.value}")
        self._queue_discard(index)
        record.state = PointState.DONE
        self._done += 1
        record.worker = "journal"
