"""What the two simulated workloads share: seeded sizes, the counting
telemetry hub, the call-site wrapper, and micro-timings of the DES,
telemetry, simulated-transport and cluster layers.

Every micro-timing calls public functions in a shape taken from the
workloads (tickers, contended resource, write+poll+read) and reports
host time; none of them feeds an end-to-end metric.
"""

from __future__ import annotations

import contextlib
import hashlib
import time
from typing import Callable

import numpy as np

from e2elib import stats
from repro.cluster.network import NetworkFabric
from repro.cluster.topology import DragonflyTopology
from repro.des import Environment, Resource
from repro.des.probe import CountingProbe, attach_probe
from repro.experiments.common import SIZE_SWEEP_BYTES, backend_models
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.hub import Telemetry
from repro.transport.models import MB, TransportOpContext
from repro.transport.simstore import SimDataStore, SimStagingArea

#: Sizes move by at most this share with the seed: enough that no two
#: seeds simulate the same inputs, too little to change the work done.
SIZE_JITTER = 0.01

#: Transport-operation records in an EventLog (what ``simstore`` logs).
_SIMSTORE_KINDS = (EventKind.WRITE, EventKind.READ, EventKind.POLL)


def seeded_sizes(rng: np.random.Generator) -> list[float]:
    """The paper's 0.4-32 MB sweep, each size nudged by the seed."""
    return [
        float(round(size * (1.0 + rng.uniform(-SIZE_JITTER, SIZE_JITTER))))
        for size in SIZE_SWEEP_BYTES
    ]


def log_digest(log: EventLog) -> str:
    return hashlib.sha256(log.to_jsonl().encode("utf-8")).hexdigest()


@contextlib.contextmanager
def wrapped(module, attr: str, make: Callable[[Callable], Callable]):
    """Swap ``module.attr`` for ``make(original)`` inside the block.

    The experiment drivers call the pattern runners through a module
    global; wrapping that name is the only way to put a span (or a
    telemetry hub) between ``sweep_point`` and ``run_*`` from outside.
    Never active while an end-to-end metric is being timed.
    """
    original = getattr(module, attr)
    setattr(module, attr, make(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class _NoSampler:
    def add_source(self, name, fn) -> "_NoSampler":
        return self


class CountingTelemetry(Telemetry):
    """A hub whose only engine hook is a :class:`CountingProbe`.

    The stock ``bind_environment`` starts a periodic gauge sampler; the
    traced pass wants exact event counts, not time series.
    """

    def __init__(self) -> None:
        super().__init__()
        self.probe = CountingProbe()

    def bind_environment(self, env):
        self.tracer.bind_clock(lambda: env.now)
        attach_probe(env, self.probe)
        return _NoSampler()


class SimCounts:
    """Exact counts summed over the pattern runs of one traced pass."""

    def __init__(self) -> None:
        self.events_processed = 0
        self.max_pending = 0
        self.eventlog_records = 0
        self.simstore_ops = 0
        self.runs = 0

    def add(self, hub: CountingTelemetry, log: EventLog) -> None:
        self.runs += 1
        self.events_processed += hub.probe.processed
        self.max_pending = max(self.max_pending, hub.probe.max_heap)
        self.eventlog_records += len(log)
        self.simstore_ops += sum(1 for r in log if r.kind in _SIMSTORE_KINDS)

    def as_dict(self) -> dict[str, int]:
        return {
            "des.events_processed": self.events_processed,
            "des.max_pending": self.max_pending,
            "telemetry.eventlog.records": self.eventlog_records,
            "transport.simstore.ops": self.simstore_ops,
        }


def counting_runner(rec, counts: SimCounts, span_name: str, span_id: Callable[[], object]):
    """``make`` for :func:`wrapped`: span + counting hub around a pattern run.

    ``span_id`` names the cell being run, so the inner span shares the
    identifier of the ``sweep_point`` span that caused it.
    """

    def make(original):
        def runner(*args, **kwargs):
            hub = kwargs.get("telemetry")
            if hub is None:
                hub = kwargs["telemetry"] = CountingTelemetry()
            with rec.span(span_name, id=span_id()):
                result = original(*args, **kwargs)
            counts.add(hub, result.log)
            return result

        return runner

    return make


def capturing_runner(sink: list):
    """``make`` for :func:`wrapped`: keep each PatternResult (digest checks)."""

    def make(original):
        def runner(*args, **kwargs):
            result = original(*args, **kwargs)
            sink.append(result)
            return result

        return runner

    return make


# -- micro-timings -----------------------------------------------------------
def _median_rate(
    build: Callable[[Environment], None], core: str, events: int, repeats: int
) -> float:
    """Median events/s over ``repeats`` unprobed runs."""
    rates = []
    for _ in range(repeats):
        env = Environment(core=core)
        build(env)
        start = time.perf_counter()
        env.run()
        rates.append(events / (time.perf_counter() - start))
    return stats.median(rates)


def _tickers(pending: int, ticks: int) -> Callable[[Environment], None]:
    """``pending`` processes each sleeping ``ticks`` times, periods staggered
    so the pending set is spread over time instead of one tie."""

    def build(env: Environment) -> None:
        def ticker(env, period):
            for _ in range(ticks):
                yield env.timeout(period)

        for i in range(pending):
            env.process(ticker(env, 1.0 + (i % 97) / 97.0))

    return build


def _contention(env: Environment) -> None:
    """benchreport's resource shape: 40 users, capacity 4, 50 holds each."""
    res = Resource(env, capacity=4)

    def user(env, res):
        for _ in range(50):
            with res.request() as req:
                yield req
                yield env.timeout(0.1)

    for _ in range(40):
        env.process(user(env, res))


def _count_events(build: Callable[[Environment], None]) -> int:
    probe = CountingProbe()
    env = Environment(probe=probe)
    build(env)
    env.run()
    return probe.processed


def des_micros(events_target: int, repeats: int) -> dict[str, float]:
    """Heap vs calendar core at a small and a large pending set."""
    out: dict[str, float] = {}
    for label, pending in (("pending_16", 16), ("pending_16k", 16384)):
        build = _tickers(pending, max(2, events_target // pending))
        events = _count_events(build)  # deterministic, identical on both cores
        for core in ("heap", "calendar"):
            out[f"des.{core}.events_per_s.{label}"] = _median_rate(
                build, core, events, repeats)
    out["des.resource.events_per_s"] = _median_rate(
        _contention, "heap", _count_events(_contention), repeats
    )
    return out


def telemetry_micros(n: int) -> dict[str, float]:
    log = EventLog()
    start = time.perf_counter()
    for i in range(n):
        log.add("sim", EventKind.WRITE, float(i), 0.5, rank=i % 12, nbytes=1e6, key="k")
    return {"telemetry.eventlog.adds_per_s": n / (time.perf_counter() - start)}


def simstore_micros(n: int) -> dict[str, float]:
    """write+poll+read through a SimDataStore in a bare Environment."""
    env = Environment()
    model = backend_models()["dragon"]
    store = SimDataStore(
        env, model, SimStagingArea(), component="sim", event_log=EventLog(),
        default_ctx=TransportOpContext(local=True, clients_per_server=12),
    )

    def client(env):
        for i in range(n):
            key = f"k{i % 16}"
            yield from store.stage_write(key, nbytes=1.0 * MB)
            yield from store.poll_staged_data(key)
            yield from store.stage_read(key)

    env.process(client(env))
    start = time.perf_counter()
    env.run()
    return {"transport.simstore.ops_per_s": 3 * n / (time.perf_counter() - start)}


def models_micros(n: int) -> dict[str, float]:
    """Op-time evaluation: the same (size, ctx) again vs a new size each call."""
    model = backend_models()["redis"]
    ctx = TransportOpContext(local=False, clients_per_server=12, fan_in=127,
                             concurrent_peers=12, concurrent_clients=139)
    model.write_time(1.0 * MB, ctx)
    start = time.perf_counter()
    for _ in range(n):
        model.write_time(1.0 * MB, ctx)
    memo = (time.perf_counter() - start) / n
    sizes = [1.0 * MB + i for i in range(n)]
    start = time.perf_counter()
    for size in sizes:
        model.write_time(size, ctx)
    miss = (time.perf_counter() - start) / n
    return {
        "transport.models.op_time_ns.memo": memo * 1e9,
        "transport.models.op_time_ns.miss": miss * 1e9,
    }


def cluster_micros(n: int, seed: int) -> dict[str, float]:
    """Route lookups and fabric transfer-time queries on a 128-node dragonfly.

    No workload routes through ``cluster`` today (the patterns charge
    ``transport.models``); recorded so a later wiring change shows.
    """
    topology = DragonflyTopology(128)
    pairs = np.random.default_rng(seed).integers(0, 128, size=(n, 2)).tolist()
    start = time.perf_counter()
    for src, dst in pairs:
        topology.path(src, dst)
    lookups = n / (time.perf_counter() - start)
    fabric = NetworkFabric(Environment(), topology)
    start = time.perf_counter()
    for src, dst in pairs:
        fabric.transfer_time(src, dst, 1.0 * MB)
    calls = n / (time.perf_counter() - start)
    return {
        "cluster.topology.path_lookups_per_s": lookups,
        "cluster.fabric.transfer_time_calls_per_s": calls,
    }


def cell_ms(call: Callable[[], object]) -> float:
    """Median host milliseconds of one cell over three calls."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return 1e3 * stats.median(times)
