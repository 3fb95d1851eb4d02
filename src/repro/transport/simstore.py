"""Simulated DataStore: the same staging API as generators over the DES.

Simulated components do not move real bytes; they charge the calibrated
:mod:`~repro.transport.models` operation times to the DES clock and keep a
shared metadata view (:class:`SimStagingArea`) so polls and reads observe
what has actually been staged so far in simulated time.

Usage inside a DES process::

    area = SimStagingArea()
    store = SimDataStore(env, model, area, component="sim", rank=0, event_log=log)

    def producer(env):
        yield from store.stage_write("snap0", nbytes=1.2e6, ctx=ctx)

    def consumer(env):
        ok = yield from store.poll_staged_data("snap0", ctx=ctx)
        if ok:
            nbytes = yield from store.stage_read("snap0", ctx=ctx)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Generator, Optional, Sequence

from repro.des import Environment
from repro.errors import (
    CorruptPayloadError,
    KeyNotStagedError,
    ReproError,
    TimeoutError,
    TransportError,
)
from repro.telemetry.events import EventKind, EventLog
from repro.transport.models import BackendModel, TransportOpContext

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.state import FaultState


class SimStagingArea:
    """Shared staged-key metadata: key -> size in bytes."""

    def __init__(self) -> None:
        self._staged: dict[str, float] = {}
        self.total_writes = 0
        self.total_reads = 0
        self._staged_bytes = 0.0

    @property
    def staged_bytes(self) -> float:
        """Bytes currently staged (the store-memory gauge source)."""
        return self._staged_bytes

    def publish(self, key: str, nbytes: float) -> None:
        self._staged_bytes += nbytes - self._staged.get(key, 0.0)
        self._staged[key] = nbytes
        self.total_writes += 1

    def size_of(self, key: str) -> float:
        try:
            return self._staged[key]
        except KeyError:
            raise KeyNotStagedError(key, backend="sim") from None

    def contains(self, key: str) -> bool:
        return key in self._staged

    def remove(self, key: str) -> bool:
        nbytes = self._staged.pop(key, None)
        if nbytes is None:
            return False
        self._staged_bytes -= nbytes
        return True

    def keys(self) -> list[str]:
        return sorted(self._staged)

    def clear(self) -> int:
        count = len(self._staged)
        self._staged.clear()
        self._staged_bytes = 0.0
        return count


class SimDataStore:
    """One component's client view of a simulated backend."""

    def __init__(
        self,
        env: Environment,
        model: BackendModel,
        area: SimStagingArea,
        component: str = "client",
        rank: int = 0,
        event_log: Optional[EventLog] = None,
        default_ctx: Optional[TransportOpContext] = None,
        fault_state: Optional["FaultState"] = None,
        op_timeout: Optional[float] = None,
    ) -> None:
        self.env = env
        self.model = model
        self.area = area
        self.component = component
        self.rank = rank
        self.event_log = event_log
        self.default_ctx = default_ctx or TransportOpContext()
        # Fault hooks. With fault_state None (the default) every hook is a
        # no-op and the event sequence is byte-identical to a store built
        # before faults existed — healthy runs stay bit-reproducible.
        self.fault_state = fault_state
        self.op_timeout = op_timeout

    @property
    def backend(self) -> str:
        return self.model.name

    def _log(self, kind: EventKind, start: float, nbytes: float, key: str) -> None:
        if self.event_log is not None:
            self.event_log.add(
                self.component, kind, start, self.env.now - start, self.rank, nbytes, key
            )

    # -- fault hooks ----------------------------------------------------------
    # Each staging op below is a single generator frame: on a healthy store
    # it yields exactly one timeout and delegates to no sub-generator; the
    # fault gate is entered only behind an ``is None`` test.
    def _fault_gate(self, faults: "FaultState") -> Generator:
        """Abort the op when an open fault window blocks this component.

        Charges the fault-detection delay (a connect attempt that times
        out) before raising, so outages cost virtual time the way real
        ones cost wall time. Yields nothing when no fault is active.
        """
        failure = faults.failure_for(self.component, self.backend)
        if failure is not None:
            yield faults.detect_seconds
            raise failure

    def _charge(self, op: str, key: str, cost: float) -> tuple[float, Optional[TimeoutError]]:
        """What to charge the clock for an op modeled at ``cost`` seconds.

        Applies any active slowdown window, then the op budget: returns
        ``(seconds to wait, error to raise afterwards or None)``.
        """
        if self.fault_state is not None:
            cost *= self.fault_state.delay_factor(self.backend)
        if self.op_timeout is not None and cost > self.op_timeout:
            return self.op_timeout, TimeoutError(
                f"{op} {key!r} on backend {self.backend!r} aborted after "
                f"{self.op_timeout:g}s (modeled {cost:.3g}s under current faults)"
            )
        return cost, None

    # -- staging API (DES generators) ----------------------------------------
    def stage_write(
        self, key: str, nbytes: float, ctx: Optional[TransportOpContext] = None
    ) -> Generator:
        """Stage ``nbytes`` under ``key``; yields the modeled write time."""
        if nbytes < 0:
            raise TransportError(f"negative staged size {nbytes}")
        faults = self.fault_state
        if faults is not None:
            yield from self._fault_gate(faults)
        start = self.env.now
        cost, late = self._charge(
            "write", key, self.model.write_time(nbytes, ctx or self.default_ctx)
        )
        yield cost
        if late is not None:
            raise late
        if faults is not None and faults.drops_message():
            # Silently lost in transit: time was spent, nothing staged.
            return nbytes
        self.area.publish(key, nbytes)
        if faults is not None:
            faults.corrupts_message(key)
        self._log(EventKind.WRITE, start, nbytes, key)
        return nbytes

    def stage_read(
        self, key: str, ctx: Optional[TransportOpContext] = None
    ) -> Generator:
        """Read a staged key; yields the modeled read time; returns nbytes."""
        faults = self.fault_state
        if faults is not None:
            yield from self._fault_gate(faults)
        nbytes = self.area.size_of(key)  # raises if not staged
        start = self.env.now
        cost, late = self._charge(
            "read", key, self.model.read_time(nbytes, ctx or self.default_ctx)
        )
        yield cost
        if late is not None:
            raise late
        if faults is not None and faults.consume_corruption(key):
            # Fetched a damaged copy; a retry models re-fetching a good one.
            raise CorruptPayloadError(
                f"staged payload for {key!r} failed checksum on {self.backend!r}"
            )
        self.area.total_reads += 1
        self._log(EventKind.READ, start, nbytes, key)
        return nbytes

    def poll_staged_data(
        self, key: str, ctx: Optional[TransportOpContext] = None
    ) -> Generator:
        """Existence check; yields the modeled poll time; returns bool."""
        faults = self.fault_state
        if faults is not None:
            yield from self._fault_gate(faults)
        start = self.env.now
        cost, late = self._charge("poll", key, self.model.poll_time(ctx or self.default_ctx))
        yield cost
        if late is not None:
            raise late
        present = self.area.contains(key)
        self._log(EventKind.POLL, start, 0.0, key)
        return present

    def clean_staged_data(self, keys: Optional[list[str]] = None) -> int:
        """Metadata-only removal (modeled as instantaneous)."""
        if keys is None:
            return self.area.clear()
        return sum(int(self.area.remove(key)) for key in keys)


def _lockstep(
    stores: Sequence[SimDataStore],
    kind: EventKind,
    columns: Sequence[Sequence[str]],
    price: Callable[[Sequence[str]], tuple[float, float]],
    settle: Callable[[str, float], None],
) -> Generator:
    """Lock-step ops of a group of stores, as one DES process.

    Every store runs the same op on its own key of ``columns[0]``, then
    of ``columns[1]``, ... back to back. The stores share one
    environment, model, default context, op budget, staging area and
    event log and carry no fault state, so a column is one modeled cost
    and one sleep. ``price(column)`` gives its ``(nbytes, seconds)`` at
    the instant the stores would start on it, and raises what a store
    would raise before charging anything. After the sleep
    ``settle(key, nbytes)`` (the op's effect on the area) runs per
    store, in list order — the order per-store :class:`SimDataStore`
    calls run in when the stores' calendar entries pop consecutively.
    The rows of a column are one :meth:`EventLog.add_step` after that
    loop: no ``yield`` separates them, so no other process's row can
    fall between.
    """
    lead = stores[0]
    env, log = lead.env, lead.event_log
    tracks = tuple([(store.component, store.rank) for store in stores])
    last = len(columns) - 1
    following = price(columns[0])
    for j, column in enumerate(columns):
        nbytes, modeled = following
        start = env.now
        cost, late = lead._charge(kind.value, column[0], modeled)
        yield cost
        if late is not None:
            raise late
        # Whether the next column can start is one answer for the group:
        # nothing runs between the stores' turns.
        refused = None
        if j < last:
            try:
                following = price(columns[j + 1])
            except KeyNotStagedError as exc:
                refused = exc
        for key in column:
            settle(key, nbytes)
        if log is not None:
            log.add_step(tracks, kind, start, env.now - start, nbytes, column)
        if refused is not None:
            raise refused


def _agreed(keys: Sequence[str], found: Sequence, what: str):
    """The one answer every store of a lock-step group got, else ReproError."""
    for key, answer in zip(keys, found):
        if answer != found[0]:
            raise ReproError(
                f"lock-step group diverged: {what} of {keys[0]!r} is {found[0]!r}, "
                f"of {key!r} {answer!r}"
            )
    return found[0]


def stage_write_group(
    stores: Sequence[SimDataStore], keys: Sequence[Sequence[str]], nbytes: float
) -> Generator:
    """Lock-step writes: ``stores[i]`` stages ``keys[i][0]``,
    ``keys[i][1]``, ... back to back, ``nbytes`` each."""
    if nbytes < 0:
        raise TransportError(f"negative staged size {nbytes}")
    lead = stores[0]
    priced = nbytes, lead.model.write_time(nbytes, lead.default_ctx)
    yield from _lockstep(
        stores, EventKind.WRITE, list(zip(*keys)), lambda column: priced, lead.area.publish
    )


def stage_read_group(stores: Sequence[SimDataStore], keys: Sequence[Sequence[str]]) -> Generator:
    """Lock-step reads: ``stores[i]`` reads ``keys[i][0]``, ``keys[i][1]``,
    ... back to back.

    A column nobody staged raises :class:`KeyNotStagedError` where the
    stores would each have raised it. A column staged for some stores
    only, or at different sizes, is a :class:`ReproError`: the group
    would no longer be in lock-step.
    """
    lead = stores[0]
    area = lead.area

    def price(column):
        nbytes = _agreed(column, [area._staged.get(key) for key in column], "staged size")
        if nbytes is None:
            raise KeyNotStagedError(column[0], backend="sim")
        return nbytes, lead.model.read_time(nbytes, lead.default_ctx)

    def settle(key, nbytes):
        area.total_reads += 1

    yield from _lockstep(stores, EventKind.READ, list(zip(*keys)), price, settle)


def poll_staged_group(stores: Sequence[SimDataStore], keys: Sequence[str]) -> Generator:
    """Lock-step existence check of ``keys[i]`` by ``stores[i]``; returns
    the group's one answer (:class:`ReproError` if the stores disagree)."""
    lead = stores[0]
    contains = lead.area.contains
    priced = 0.0, lead.model.poll_time(lead.default_ctx)
    found: list[bool] = []
    yield from _lockstep(
        stores, EventKind.POLL, [keys], lambda column: priced,
        lambda key, nbytes: found.append(contains(key)),
    )
    return _agreed(keys, found, "presence")
