"""Tests for the DES-side simulated DataStore."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.des import Environment
from repro.errors import KeyNotStagedError, ReproError, TimeoutError, TransportError
from repro.telemetry import EventKind, EventLog, Telemetry
from repro.transport.models import (
    NodeLocalBackendModel,
    TransportOpContext,
)
from repro.transport.simstore import (
    SimDataStore,
    SimStagingArea,
    poll_staged_group,
    stage_read_group,
    stage_write_group,
)


def make_store(event_log=None):
    env = Environment()
    area = SimStagingArea()
    store = SimDataStore(
        env,
        NodeLocalBackendModel(),
        area,
        component="sim",
        rank=2,
        event_log=event_log,
        default_ctx=TransportOpContext(local=True),
    )
    return env, area, store


def test_staging_area_publish_and_query():
    area = SimStagingArea()
    area.publish("k", 100.0)
    assert area.contains("k")
    assert area.size_of("k") == 100.0
    assert area.keys() == ["k"]
    assert area.remove("k")
    assert not area.remove("k")
    with pytest.raises(KeyNotStagedError):
        area.size_of("k")


def test_staging_area_clear():
    area = SimStagingArea()
    area.publish("a", 1)
    area.publish("b", 2)
    assert area.clear() == 2
    assert area.keys() == []


def test_write_advances_clock_and_publishes():
    env, area, store = make_store()
    done = []

    def proc(env):
        nbytes = yield from store.stage_write("snap", 1e6)
        done.append((env.now, nbytes))

    env.process(proc(env))
    env.run()
    t, nbytes = done[0]
    assert t == pytest.approx(NodeLocalBackendModel().write_time(1e6, store.default_ctx))
    assert nbytes == 1e6
    assert area.contains("snap")


def test_read_returns_staged_size():
    env, area, store = make_store()
    got = []

    def proc(env):
        yield from store.stage_write("snap", 2e6)
        nbytes = yield from store.stage_read("snap")
        got.append((env.now, nbytes))

    env.process(proc(env))
    env.run()
    assert got[0][1] == 2e6
    assert area.total_reads == 1


def test_read_missing_raises_immediately():
    env, area, store = make_store()

    def proc(env):
        yield from store.stage_read("nope")

    env.process(proc(env))
    with pytest.raises(KeyNotStagedError):
        env.run()


def test_poll_returns_presence():
    env, area, store = make_store()
    results = []

    def proc(env):
        first = yield from store.poll_staged_data("snap")
        yield from store.stage_write("snap", 10.0)
        second = yield from store.poll_staged_data("snap")
        results.append((first, second))

    env.process(proc(env))
    env.run()
    assert results == [(False, True)]


def test_poll_charges_time():
    env, area, store = make_store()
    times = []

    def proc(env):
        yield from store.poll_staged_data("x")
        times.append(env.now)

    env.process(proc(env))
    env.run()
    assert times[0] > 0


def test_concurrent_producer_consumer_ordering():
    """A consumer polling sees data only after the producer's write lands."""
    env, area, store = make_store()
    observations = []

    def producer(env):
        yield env.timeout(0.5)
        yield from store.stage_write("snap", 1e6)

    def consumer(env):
        while True:
            ok = yield from store.poll_staged_data("snap")
            observations.append((env.now, ok))
            if ok:
                return
            yield env.timeout(0.2)

    env.process(producer(env))
    env.process(consumer(env))
    env.run()
    assert observations[-1][1] is True
    assert all(not ok for _, ok in observations[:-1])
    # Data visible strictly after 0.5 + write time.
    assert observations[-1][0] > 0.5


def test_event_log_records_sim_events():
    log = EventLog()
    env, area, store = make_store(event_log=log)

    def proc(env):
        yield from store.stage_write("k", 5e5)
        yield from store.stage_read("k")
        yield from store.poll_staged_data("k")

    env.process(proc(env))
    env.run()
    kinds = [r.kind for r in log]
    assert kinds == [EventKind.WRITE, EventKind.READ, EventKind.POLL]
    assert log[0].nbytes == 5e5
    assert log[0].rank == 2
    assert log[0].duration > 0
    assert log[1].component == "sim"


def test_clean_staged_data():
    env, area, store = make_store()

    def proc(env):
        yield from store.stage_write("a", 1)
        yield from store.stage_write("b", 1)

    env.process(proc(env))
    env.run()
    assert store.clean_staged_data(["a"]) == 1
    assert store.clean_staged_data() == 1


def test_negative_write_size_rejected():
    env, area, store = make_store()
    with pytest.raises(TransportError):
        list(store.stage_write("k", -1))


def test_backend_name():
    env, area, store = make_store()
    assert store.backend == "node-local"


# -- lock-step group ops ------------------------------------------------------


def _group_fixture(n=3, **store_kwargs):
    env, area, log = Environment(), SimStagingArea(), EventLog()
    stores = [
        SimDataStore(
            env, NodeLocalBackendModel(), area, component=f"sim{i}", rank=i,
            event_log=log, default_ctx=TransportOpContext(local=True), **store_kwargs,
        )
        for i in range(n)
    ]
    keys = [[f"sim{i}_a0", f"sim{i}_a1"] for i in range(n)]
    return env, area, log, stores, keys


def _lead(stores, keys):
    """A group op's ``(store, tracks, columns)`` for ``stores[i]`` taking
    ``keys[i][0]``, ``keys[i][1]``, ...: the lead store, the group's
    tracks and the key columns."""
    tracks = tuple([(store.component, store.rank) for store in stores])
    return stores[0], tracks, [list(column) for column in zip(*keys)]


def _derived(log):
    """The hub content a traced run derives from ``log``."""
    hub = Telemetry()
    hub.record_run(log, "node-local")
    return hub.snapshot()


def _snapshot(area, log):
    return (
        log.to_jsonl(), area.keys(), area.staged_bytes, area.total_writes, _derived(log),
    )


def test_group_write_is_the_per_store_writes_in_one_process():
    env, area, log, stores, keys = _group_fixture()
    env.process(stage_write_group(*_lead(stores, keys), 2e6))
    env.run()
    grouped = _snapshot(area, log)
    assert env.now > 0 and len(log) == 6

    env, area, log, stores, keys = _group_fixture()

    def writer(store, mine):
        for key in mine:
            yield from store.stage_write(key, 2e6)

    for store, mine in zip(stores, keys):
        env.process(writer(store, mine))
    env.run()
    assert _snapshot(area, log) == grouped
    # Each store's second key goes on the wire the instant its first
    # comes off: all three stay on it until the last write ends.
    hub = Telemetry()
    hub.record_run(log, "node-local")
    levels = [v for _, v in hub.metrics.gauge("link.occupancy").samples]
    assert levels == [3, 0]


@pytest.mark.parametrize("op_timeout", [None, 1e-9], ids=["in-budget", "op-timeout-fires"])
@pytest.mark.parametrize("traced", [False, True], ids=["no-hub", "hub"])
def test_group_write_logs_what_per_store_writes_log(traced, op_timeout):
    """One step per key column is, row for row, the per-store WRITE rows —
    also with another process logging between the columns."""

    def run(grouped):
        env, area, log, stores, keys = _group_fixture(n=5, op_timeout=op_timeout)
        failures = []

        def writer(write):
            try:
                yield from write
            except TimeoutError as err:
                failures.append((env.now, type(err), str(err)))

        def one_store(store, mine):
            for key in mine:
                yield from store.stage_write(key, 2e6)

        def poller():
            reader = SimDataStore(
                env, NodeLocalBackendModel(), area, component="train", event_log=log,
                default_ctx=TransportOpContext(local=True),
            )
            for _ in range(40):
                yield from reader.poll_staged_data("sim0_a1")

        if grouped:
            env.process(writer(stage_write_group(*_lead(stores, keys), 2e6)))
        else:
            for store, mine in zip(stores, keys):
                env.process(writer(one_store(store, mine)))
        env.process(poller())
        env.run()
        return log, failures, area.keys(), traced and _derived(log)

    log, failures, staged, snapshot = run(grouped=True)
    per_store, per_store_failures, per_store_staged, per_store_snapshot = run(grouped=False)
    assert log.to_jsonl() == per_store.to_jsonl()
    assert (staged, snapshot) == (per_store_staged, per_store_snapshot)
    # The group fails once, as its first store would have.
    assert failures == per_store_failures[:1]
    writes = log.count(kind=EventKind.WRITE)
    assert (writes, len(failures)) == ((10, 0) if op_timeout is None else (0, 1))
    assert log.count(kind=EventKind.POLL) == 40


def test_group_write_rejects_negative_size_before_any_time_passes():
    env, area, log, stores, keys = _group_fixture()
    failures = []

    def proc():
        try:
            yield from stage_write_group(*_lead(stores, keys), -1.0)
        except TransportError as err:
            failures.append((env.now, str(err)))

    env.process(proc())
    env.run()
    assert failures == [(0.0, "negative staged size -1.0")]
    assert len(log) == 0 and area.keys() == []


def test_group_write_over_the_op_budget_times_out_for_every_store():
    env, area, log, stores, keys = _group_fixture(op_timeout=1e-9)
    failures = []

    def proc():
        try:
            yield from stage_write_group(*_lead(stores, keys), 2e6)
        except TimeoutError:
            failures.append(env.now)

    env.process(proc())
    env.run()
    assert failures == [1e-9]
    assert len(log) == 0 and area.keys() == []


# -- lock-step group polls and reads ---------------------------------------------


@pytest.mark.parametrize("op_timeout", [None, 1e-9], ids=["in-budget", "op-timeout-fires"])
@pytest.mark.parametrize("staged", [0, 1, 2], ids=["nothing", "first-array", "both-arrays"])
def test_group_ingest_is_the_per_store_ingests_in_one_process(staged, op_timeout):
    """Poll, then read every array: rows, read counter, derived hub
    content and the error are what one process per store gives, also
    when the snapshot is only partly staged."""

    def run(grouped):
        env, area, log, stores, keys = _group_fixture(op_timeout=op_timeout)
        for mine in keys:
            for key in mine[:staged]:
                area.publish(key, 2e6)
        outcomes = []

        def ingest(poll, read):
            try:
                present = yield from poll
                if present:
                    yield from read()
                outcomes.append((env.now, present))
            except TransportError as err:
                outcomes.append((env.now, type(err), str(err)))

        def one_store_reads(store, mine):
            for key in mine:
                yield from store.stage_read(key)

        if grouped:
            store, tracks, columns = _lead(stores, keys)
            env.process(
                ingest(
                    poll_staged_group(store, tracks, columns[0]),
                    lambda: stage_read_group(store, tracks, columns),
                )
            )
        else:
            for store, mine in zip(stores, keys):
                env.process(
                    ingest(
                        store.poll_staged_data(mine[0]),
                        lambda store=store, mine=mine: one_store_reads(store, mine),
                    )
                )
        env.run()
        return log.to_jsonl(), area.total_reads, _derived(log), outcomes

    log, reads, snapshot, outcomes = run(grouped=True)
    per_store = run(grouped=False)
    assert (log, reads, snapshot) == per_store[:3]
    # The group ends once, as its first store would have.
    assert len(per_store[3]) == 3 and outcomes == per_store[3][:1]
    if op_timeout is not None:
        assert outcomes[0][1] is TimeoutError and reads == 0
    else:
        assert reads == 3 * staged
        assert (outcomes[0][1] is KeyNotStagedError) == (staged == 1)


def test_group_read_of_nothing_staged_raises_before_any_time_passes():
    env, area, log, stores, keys = _group_fixture()
    failures = []

    def proc():
        try:
            yield from stage_read_group(*_lead(stores, keys))
        except KeyNotStagedError as err:
            failures.append((env.now, err.key))

    env.process(proc())
    env.run()
    assert failures == [(0.0, "sim0_a0")]
    assert len(log) == 0


@pytest.mark.parametrize("fate", ["missing", "another-size"])
def test_a_group_whose_stores_find_different_things_is_an_error(fate):
    env, area, log, stores, keys = _group_fixture()
    for i, mine in enumerate(keys):
        if i == 1 and fate == "missing":
            continue
        area.publish(mine[0], 2e6 + (i == 1))

    def ingest():
        store, tracks, columns = _lead(stores, keys)
        if (yield from poll_staged_group(store, tracks, columns[0])):
            yield from stage_read_group(store, tracks, columns[:1])

    env.process(ingest())
    what = "presence" if fate == "missing" else "staged size"
    with pytest.raises(ReproError, match=f"lock-step group diverged: {what} of 'sim0_a0'"):
        env.run()
    assert area.total_reads == 0


# -- a key column in one publish ------------------------------------------------

#: Sizes whose differences round: a gauge summed in another order drifts.
_AWKWARD_SIZES = st.sampled_from([0.0, 0.1, 1e6 / 3, 2e6, 4e6 + 0.3, 2.0**53 + 1, 7.7e-3])


@given(
    columns=st.lists(
        st.tuples(st.lists(st.sampled_from("abcdef"), max_size=6), _AWKWARD_SIZES),
        max_size=12,
    )
)
def test_a_column_publish_is_the_keys_published_one_by_one(columns):
    """Bit for bit, also with a key twice in one column and overwrites at
    new sizes: the same sizes, counters and gauge as the per-key
    arithmetic ``staged_bytes += nbytes - old`` run in key order."""
    area, one_by_one = SimStagingArea(), SimStagingArea()
    sizes: dict = {}
    staged_bytes = 0.0
    for keys, nbytes in columns:
        area.publish_column(keys, nbytes)
        for key in keys:
            one_by_one.publish(key, nbytes)
            staged_bytes += nbytes - sizes.get(key, 0.0)
            sizes[key] = nbytes
    writes = sum(len(keys) for keys, _ in columns)
    for got in (area, one_by_one):
        assert got._staged == sizes and got.keys() == sorted(sizes) and len(got) == len(sizes)
        assert got.staged_bytes.hex() == float(staged_bytes).hex()
        assert (got.total_writes, got.total_reads) == (writes, 0)
