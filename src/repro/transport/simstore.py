"""Simulated DataStore: the same staging API as generators over the DES.

Simulated components do not move real bytes; they charge the calibrated
:mod:`~repro.transport.models` operation times to the DES clock and keep a
shared metadata view (:class:`SimStagingArea`) so polls and reads observe
what has actually been staged so far in simulated time.

Usage inside a DES process::

    area = SimStagingArea()
    store = SimDataStore(env, model, area, component="sim", rank=0, log=log)

    def producer(env):
        yield from store.stage_write("snap0", nbytes=1.2e6, ctx=ctx)

    def consumer(env):
        ok = yield from store.poll_staged_data("snap0", ctx=ctx)
        if ok:
            nbytes = yield from store.stage_read("snap0", ctx=ctx)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Generator, Optional, Sequence

from repro.des import Environment
from repro.errors import CorruptPayloadError, KeyNotStagedError, TimeoutError, TransportError
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.hub import Telemetry
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
        telemetry: Optional[Telemetry] = None,
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
        self.telemetry = telemetry
        # Fault hooks. With fault_state None (the default) every hook is a
        # no-op and the event sequence is byte-identical to a store built
        # before faults existed — healthy runs stay bit-reproducible.
        self.fault_state = fault_state
        self.op_timeout = op_timeout

    @property
    def backend(self) -> str:
        return self.model.name

    def _log(self, kind: EventKind, start: float, nbytes: float, key: str) -> None:
        duration = self.env.now - start
        if self.event_log is not None:
            self.event_log.add(self.component, kind, start, duration, self.rank, nbytes, key)
        if self.telemetry is not None:
            self._trace(kind, start, duration, nbytes, key)

    def _trace(self, kind: EventKind, start: float, duration: float, nbytes: float, key: str) -> None:
        """The tracer span and metrics of one finished op (hub attached)."""
        self.telemetry.tracer.add_span(
            f"transport.{kind.value}",
            start=start,
            duration=duration,
            category="transport",
            pid=self.component,
            tid=self.rank,
            key=key,
            nbytes=nbytes,
            backend=self.model.name,
        )
        metrics = self.telemetry.metrics
        label = {"backend": self.model.name}
        metrics.histogram(f"transport.{kind.value}.seconds", **label).observe(duration)
        metrics.counter(f"transport.{kind.value}.ops", **label).inc()
        if nbytes:
            metrics.counter(f"transport.{kind.value}.bytes", **label).inc(nbytes)

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
        faults, telemetry = self.fault_state, self.telemetry
        if faults is not None:
            yield from self._fault_gate(faults)
        start = self.env.now
        cost, late = self._charge(
            "write", key, self.model.write_time(nbytes, ctx or self.default_ctx)
        )
        if telemetry is not None:
            telemetry.transport_started(t=start)
        try:
            yield cost
        finally:
            if telemetry is not None:
                telemetry.transport_finished(t=self.env.now)
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
        faults, telemetry = self.fault_state, self.telemetry
        if faults is not None:
            yield from self._fault_gate(faults)
        nbytes = self.area.size_of(key)  # raises if not staged
        start = self.env.now
        cost, late = self._charge(
            "read", key, self.model.read_time(nbytes, ctx or self.default_ctx)
        )
        if telemetry is not None:
            telemetry.transport_started(t=start)
        try:
            yield cost
        finally:
            if telemetry is not None:
                telemetry.transport_finished(t=self.env.now)
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


def stage_write_group(
    stores: Sequence[SimDataStore], keys: Sequence[Sequence[str]], nbytes: float
) -> Generator:
    """Lock-step writes of a group of stores, as one DES process.

    ``stores[i]`` stages ``keys[i][0]``, ``keys[i][1]``, ... back to
    back, ``nbytes`` each. The stores share one environment, model,
    default context, op budget, event log and hub and carry no fault
    state, so the modeled cost is one number and the group sleeps once
    per key; the publish, the tracer span and the ``link.occupancy``
    steps happen per store, in list order — the order per-store
    :meth:`SimDataStore.stage_write` calls run in when the stores'
    calendar entries pop consecutively. The WRITE rows of one key column
    are one :meth:`EventLog.add_step` after that loop: no ``yield``
    separates them, so no other process's row can fall between.
    """
    lead = stores[0]
    if nbytes < 0:
        raise TransportError(f"negative staged size {nbytes}")
    env, telemetry, log = lead.env, lead.telemetry, lead.event_log
    modeled = lead.model.write_time(nbytes, lead.default_ctx)
    tracks = tuple([(store.component, store.rank) for store in stores])
    columns = list(zip(*keys))
    last = len(columns) - 1
    for j, column in enumerate(columns):
        start = env.now
        cost, late = lead._charge("write", column[0], modeled)
        if telemetry is not None and j == 0:
            for _ in stores:
                telemetry.transport_started(t=start)
        yield cost
        now = env.now
        for store, key in zip(stores, column):
            if telemetry is not None:
                telemetry.transport_finished(t=now)
            if late is not None:
                continue
            store.area.publish(key, nbytes)
            if telemetry is not None:
                store._trace(EventKind.WRITE, start, now - start, nbytes, key)
                if j < last:
                    # This store's next key goes on the wire before the
                    # next store's write has come off it.
                    telemetry.transport_started(t=now)
        if late is not None:
            raise late
        if log is not None:
            log.add_step(tracks, EventKind.WRITE, start, now - start, nbytes, column)
