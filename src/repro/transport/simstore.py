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

from functools import reduce
from itertools import repeat
from operator import add, sub
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
        self.publish_column((key,), nbytes)

    def publish_column(self, keys: Sequence[str], nbytes: float) -> None:
        """Stage every key of ``keys`` at ``nbytes``, in order, in one call.

        The gauge is the per-key sum ``staged_bytes += nbytes - old`` in
        key order, bit for bit: the differences are taken in C and folded
        left. A key repeated in the column sees its own earlier publish.
        """
        staged = self._staged
        fresh = dict.fromkeys(keys, nbytes)
        if len(fresh) == len(keys):
            olds = list(map(staged.get, keys, repeat(0.0)))
            staged.update(fresh)
        else:
            olds = []
            for key in keys:
                olds.append(staged.get(key, 0.0))
                staged[key] = nbytes
        self._staged_bytes = reduce(add, map(sub, repeat(nbytes), olds), self._staged_bytes)
        self.total_writes += len(keys)

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

    def __len__(self) -> int:
        return len(self._staged)

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
    store: SimDataStore,
    tracks: tuple,
    kind: EventKind,
    columns: Sequence[Sequence[str]],
    price: Callable[[Sequence[str]], tuple[float, float]],
    settle: Callable[[Sequence[str], float], None],
) -> Generator:
    """Lock-step ops of a group of ranks, as one DES process.

    The rank on ``tracks[i]`` runs the same op on ``columns[0][i]``, then
    on ``columns[1][i]``, ... back to back. The ranks share one
    environment, model, default context, op budget, staging area and
    event log and carry no fault state, so ``store`` (the group's lead)
    speaks for all of them and a column is one modeled cost and one
    sleep. ``price(column)`` gives its ``(nbytes, seconds)`` at the
    instant the ranks would start on it, and raises what a rank would
    raise before charging anything. After the sleep ``settle(column,
    nbytes)`` applies the column's effect on the area in one call, key by
    key in track order — the order per-rank :class:`SimDataStore` calls
    run in when the ranks' calendar entries pop consecutively. The rows
    of a column are one :meth:`EventLog.add_step` right after: no
    ``yield`` separates them, so no other process's row can fall between.
    ``tracks`` is the tuple the group built once; every step stores that
    same object, so the log works out what it matches once per group.
    """
    env, log = store.env, store.event_log
    last = len(columns) - 1
    following = price(columns[0])
    for j, column in enumerate(columns):
        nbytes, modeled = following
        start = env.now
        cost, late = store._charge(kind.value, column[0], modeled)
        yield cost
        if late is not None:
            raise late
        # Whether the next column can start is one answer for the group:
        # nothing runs between the ranks' turns.
        refused = None
        if j < last:
            try:
                following = price(columns[j + 1])
            except KeyNotStagedError as exc:
                refused = exc
        settle(column, nbytes)
        if log is not None:
            log.add_step(tracks, kind, start, env.now - start, nbytes, column)
        if refused is not None:
            raise refused


def _agreed(keys: Sequence[str], found: list, what: str):
    """The one answer every rank of a lock-step group got, else ReproError."""
    first = found[0]
    if found.count(first) == len(found):
        return first
    for key, answer in zip(keys, found):
        if answer != first:
            raise ReproError(
                f"lock-step group diverged: {what} of {keys[0]!r} is {first!r}, "
                f"of {key!r} {answer!r}"
            )
    return first


def stage_write_group(
    store: SimDataStore, tracks: tuple, columns: Sequence[Sequence[str]], nbytes: float
) -> Generator:
    """Lock-step writes: the rank on ``tracks[i]`` stages
    ``columns[0][i]``, ``columns[1][i]``, ... back to back, ``nbytes``
    each; a column is one publish on the area."""
    if nbytes < 0:
        raise TransportError(f"negative staged size {nbytes}")
    priced = nbytes, store.model.write_time(nbytes, store.default_ctx)
    yield from _lockstep(
        store, tracks, EventKind.WRITE, columns, lambda column: priced,
        store.area.publish_column,
    )


def stage_read_group(
    store: SimDataStore, tracks: tuple, columns: Sequence[Sequence[str]]
) -> Generator:
    """Lock-step reads: the rank on ``tracks[i]`` reads ``columns[0][i]``,
    ``columns[1][i]``, ... back to back.

    A column nobody staged raises :class:`KeyNotStagedError` where the
    ranks would each have raised it. A column staged for some ranks
    only, or at different sizes, is a :class:`ReproError`: the group
    would no longer be in lock-step.
    """
    area = store.area
    size = area._staged.get

    def price(column):
        nbytes = _agreed(column, list(map(size, column)), "staged size")
        if nbytes is None:
            raise KeyNotStagedError(column[0], backend="sim")
        return nbytes, store.model.read_time(nbytes, store.default_ctx)

    def settle(column, nbytes):
        area.total_reads += len(column)

    yield from _lockstep(store, tracks, EventKind.READ, columns, price, settle)


def poll_staged_group(store: SimDataStore, tracks: tuple, column: Sequence[str]) -> Generator:
    """Lock-step existence check of ``column[i]`` by the rank on
    ``tracks[i]``; returns the group's one answer (:class:`ReproError` if
    the ranks disagree)."""
    staged = store.area._staged
    priced = 0.0, store.model.poll_time(store.default_ctx)
    found: list[bool] = []
    yield from _lockstep(
        store, tracks, EventKind.POLL, [column], lambda _: priced,
        lambda column, nbytes: found.extend(map(staged.__contains__, column)),
    )
    return _agreed(column, found, "presence")
