"""Lock-step ranks run as one DES process — and nothing shows.

A group of ranks that provably advance together (deterministic iteration
time, healthy, contiguous calendar entries) shares one sleep per step:
Pattern 2's producers, Pattern 1's simulation ranks, Pattern 1's trainer
ranks and Pattern 2's reader lanes (one process per ingest, one poll and
one read per key column). These tests pin that the grouped program and
the one-process-per-rank program are indistinguishable from outside: same
``EventLog`` bytes, counters, makespan and, under a hub, the same tracer
and metrics content. The one-rank-per-group side is driven by patching
the internal grouping function (there is no public switch); it ungroups
the lanes along with the ranks.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

import repro.workloads.patterns as patterns
from repro.config.distributions import Constant, Normal
from repro.des.probe import CountingProbe
from repro.errors import ReproError
from repro.experiments.common import backend_models, pattern1_context, pattern2_contexts
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.telemetry import EventKind, Telemetry
from repro.transport.resilience import ResilienceConfig
from repro.workloads.patterns import (
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)
from tests.des.goldens import one_rank_per_group, probed_pattern_environment
from tests.workloads import cell_digests

#: Tie-heavy dyadic times: exact in binary, so distinct processes land on
#: the same instant again and again.
INIT_TIMES = st.sampled_from([0.0, 0.5, 1.0, 2.0])
ITER_TIMES = st.sampled_from([0.25, 0.5, 1.0])
SIZES = st.sampled_from([0.0, 0.4e6, 4e6])

#: The engine's own pending-queue depth is the one series that differs by
#: design (N entries per step became one).
ENGINE_SERIES = "des.event_queue"


def observed(result, hub) -> dict:
    """Everything a caller can see of a run, in comparable form."""
    out = {
        "log": result.log.to_jsonl(),
        "makespan": result.makespan,
        "counters": (
            result.sim_iterations,
            result.train_iterations,
            result.snapshots_written,
            result.snapshots_read,
        ),
        "resilience": result.resilience,
    }
    if hub is not None:
        snap = asdict(hub.snapshot())
        snap["counters"] = [c for c in snap["counters"] if c["name"] != ENGINE_SERIES]
        del snap["metrics"][ENGINE_SERIES]
        out["telemetry"] = snap
    return out


def both_ways(run, traced: bool = False):
    """(grouped, one rank per group) observations of ``run(telemetry)``."""
    hub = Telemetry() if traced else None
    grouped = observed(run(hub), hub)
    hub = Telemetry() if traced else None
    with one_rank_per_group():
        ungrouped = observed(run(hub), hub)
    return grouped, ungrouped


class Watch(CountingProbe):
    """Event counts plus the processes that ran, in creation order."""

    def __init__(self) -> None:
        super().__init__()
        self._seen: dict = {}

    def on_process_switch(self, env, process) -> None:
        self._seen.setdefault(process)

    @property
    def names(self) -> list[str]:
        return [process.name for process in self._seen]


@contextmanager
def watched():
    """Attach a :class:`Watch` to every pattern run started inside."""
    watch = Watch()
    with probed_pattern_environment(watch):
        yield watch


#: What a Pattern 1 config lets the runner prove, and the processes the
#: run must then create.
SHAPES = {
    "trainer group": lambda ranks: 2,
    "sim group, one process per trainer": lambda ranks: 1 + ranks,
    "one process per rank": lambda ranks: 2 * ranks,
}
UNEQUAL_INIT_TIMES = st.sampled_from([(0.0, 0.5), (0.5, 0.0), (1.0, 2.0), (2.0, 0.5), (0.5, 1.0)])


@st.composite
def one_to_one_cases(draw, shapes=st.sampled_from(sorted(SHAPES))):
    """``(shape, config)``: the shape is drawn first and the config built to it."""
    shape = draw(shapes)
    per_rank = shape == "one process per rank"
    # Equal init times are the one deterministic config that stays per-rank.
    inits = draw(INIT_TIMES.map(lambda t: (t, t)) if per_rank else UNEQUAL_INIT_TIMES)
    ai_iter = draw(ITER_TIMES)
    stochastic = shape == "sim group, one process per trainer"
    return shape, OneToOneConfig(
        sim_iter_time=Constant(draw(ITER_TIMES)),
        ai_iter_time=Normal(ai_iter, ai_iter / 4, min=0.01) if stochastic else Constant(ai_iter),
        write_interval=draw(st.integers(1, 4)),
        read_interval=draw(st.integers(1, 4)),
        train_iterations=draw(st.integers(0, 12)),
        snapshot_nbytes=draw(SIZES),
        arrays_per_snapshot=draw(st.integers(1, 3)),
        ranks_per_component=draw(st.integers(1 if per_rank else 2, 16)),
        sim_init_time=inits[0],
        ai_init_time=inits[1],
    )


def check_one_to_one(backend, case, traced):
    shape, config = case
    model, ctx = backend_models()[backend], pattern1_context(8)
    with watched() as watch:
        grouped, ungrouped = both_ways(
            lambda hub: run_one_to_one(model, config, ctx=ctx, telemetry=hub), traced
        )
    assert grouped == ungrouped
    ranks = config.ranks_per_component
    assert len(watch.names) == SHAPES[shape](ranks) + 2 * ranks, watch.names
    event(shape)


P1_BACKENDS = st.sampled_from(["node-local", "dragon", "redis", "filesystem"])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(backend=P1_BACKENDS, case=one_to_one_cases(), traced=st.booleans())
def test_one_to_one_grouped_equals_per_rank(backend, case, traced):
    """All three shapes. Hypothesis clusters its draws, so which share of
    a run forms a trainer group varies (``event`` reports it); the
    property below does not leave that to chance."""
    check_one_to_one(backend, case, traced)


def trainer_group_corner(**overrides):
    knobs = dict(
        sim_iter_time=Constant(0.25), ai_iter_time=Constant(0.5), write_interval=1,
        read_interval=1, train_iterations=12, snapshot_nbytes=0.4e6,
        ranks_per_component=6, sim_init_time=0.5, ai_init_time=1.0,
    )
    return "trainer group", OneToOneConfig(**{**knobs, **overrides})


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=P1_BACKENDS,
    case=one_to_one_cases(st.just("trainer group")),
    traced=st.booleans(),
)
# A read at every step over one to three array columns (a poll can fall
# between two array writes), and a run that never trains.
@example("dragon", trainer_group_corner(arrays_per_snapshot=1), True)
@example("redis", trainer_group_corner(arrays_per_snapshot=2, snapshot_nbytes=4e6), False)
@example("filesystem", trainer_group_corner(arrays_per_snapshot=3, ai_iter_time=Constant(0.25)), True)
@example("node-local", trainer_group_corner(train_iterations=0), True)
def test_one_to_one_trainer_group_equals_per_rank(backend, case, traced):
    """Every example forms a trainer group: exactly two processes."""
    check_one_to_one(backend, case, traced)


#: From deadlines that expire mid-ingest to the default that never does.
POLL_TIMEOUTS = st.sampled_from([0.05, 0.1, 0.5, 300.0])


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    # node-local cannot serve the trainer's remote reads: every column is missed.
    backend=st.sampled_from(["node-local", "dragon", "redis", "filesystem"]),
    producers=st.integers(1, 40),
    write_interval=st.integers(1, 4),
    read_interval=st.integers(1, 4),
    reader_lanes=st.integers(1, 12),
    nbytes=SIZES,
    sim_iter=ITER_TIMES,
    ai_iter=ITER_TIMES,
    train_iterations=st.integers(0, 12),
    poll_timeout=POLL_TIMEOUTS,
    traced=st.booleans(),
)
def test_many_to_one_grouped_equals_per_rank(
    backend, producers, write_interval, read_interval, reader_lanes, nbytes,
    sim_iter, ai_iter, train_iterations, poll_timeout, traced,
):
    """Producers and reader lanes alike: uneven lanes, more lanes than
    producers, columns that time out or are missed."""
    config = ManyToOneConfig(
        n_simulations=producers,
        sim_iter_time=Constant(sim_iter),
        ai_iter_time=Constant(ai_iter),
        write_interval=write_interval,
        read_interval=read_interval,
        train_iterations=train_iterations,
        snapshot_nbytes=nbytes,
        reader_lanes=reader_lanes,
        poll_timeout=poll_timeout,
    )
    model = backend_models()[backend]
    grouped, ungrouped = both_ways(
        lambda hub: run_many_to_one(model, config, telemetry=hub), traced
    )
    assert grouped == ungrouped


# -- the Pattern 1 hazard --------------------------------------------------------

#: Sim and AI ranks are created interleaved; with equal init times and
#: commensurate iteration times their entries alternate rank by rank at
#: every instant and the sims never form a contiguous block.
HAZARD = dict(
    train_iterations=100,
    sim_init_time=1.0,
    ai_init_time=1.0,
    sim_iter_time=Constant(0.05),
    ai_iter_time=Constant(0.05),
    write_interval=10,
)


def test_equal_init_times_are_not_grouped(monkeypatch):
    model = backend_models()["dragon"]

    def run(hub=None):
        return run_one_to_one(model, OneToOneConfig(**HAZARD), telemetry=hub)

    grouped, ungrouped = both_ways(run)
    assert grouped == ungrouped
    # The clause is load-bearing: grouping this config anyway moves rows.
    monkeypatch.setattr(
        patterns, "_rank_groups", lambda ranks, *args, **kwargs: [list(ranks)]
    )
    assert observed(run(), None)["log"] != ungrouped["log"]


# -- which inputs group ----------------------------------------------------------


@pytest.fixture
def groups_seen(monkeypatch):
    """Every grouping decision the pattern runners make in this process
    (Pattern 1 makes two per run: simulation ranks, then trainer ranks)."""
    seen = []
    original = patterns._rank_groups

    def spy(*args, **kwargs):
        groups = original(*args, **kwargs)
        seen.append(groups)
        return groups

    monkeypatch.setattr(patterns, "_rank_groups", spy)
    return seen


def crash_plan() -> FaultPlan:
    return FaultPlan(faults=[FaultSpec(kind=FaultKind.BACKEND_CRASH, at=1.0, duration=0.5)])


def test_deterministic_healthy_serial_runs_are_one_group(groups_seen):
    model = backend_models()["dragon"]
    run_one_to_one(model, OneToOneConfig(train_iterations=5, ranks_per_component=4))
    run_many_to_one(model, ManyToOneConfig(n_simulations=5, train_iterations=5))
    # Each pattern decides twice: Pattern 1 its sims, then its trainers;
    # Pattern 2 its producers, then the trainer's reader lanes (five
    # producers leave five of the twelve lanes with a key).
    assert groups_seen == [[[0, 1, 2, 3]], [[0, 1, 2, 3]], [[0, 1, 2, 3, 4]], [[0, 1, 2, 3, 4]]]


@pytest.mark.parametrize(
    "overrides, kwargs",
    [
        ({"sim_iter_time": Normal(0.03, 0.005, min=0.001)}, {}),
        ({}, {"fault_plan": crash_plan()}),
        ({}, {"resilience": ResilienceConfig()}),
    ],
    ids=["stochastic", "fault-plan", "explicit-resilience"],
)
def test_unprovable_lockstep_takes_one_rank_per_group(groups_seen, overrides, kwargs):
    model = backend_models()["redis"]
    run_one_to_one(
        model, OneToOneConfig(train_iterations=20, ranks_per_component=3, **overrides), **kwargs
    )
    run_many_to_one(
        model,
        ManyToOneConfig(n_simulations=3, train_iterations=20, poll_timeout=2.0, **overrides),
        **kwargs,
    )
    assert groups_seen == [[[0], [1], [2]]] * 4


def test_disabled_fault_plan_still_groups(groups_seen):
    plan = crash_plan()
    plan.enabled = False
    run_many_to_one(
        backend_models()["redis"],
        ManyToOneConfig(n_simulations=3, train_iterations=5),
        fault_plan=plan,
    )
    assert groups_seen == [[[0, 1, 2]]] * 2  # producers, then reader lanes


@pytest.mark.parametrize("pattern", ["one-to-one", "many-to-one"])
def test_negative_size_counts_every_rank_as_lost(monkeypatch, pattern):
    captured = []
    original = patterns._sim_ranks

    def spy(env, log, stop, counters, *args, **kwargs):
        captured.append(counters)
        return original(env, log, stop, counters, *args, **kwargs)

    monkeypatch.setattr(patterns, "_sim_ranks", spy)
    model = backend_models()["dragon"]

    def negative(config):
        # The configs refuse a negative size; set after construction it
        # reaches the stores' own guard, which every rank must hit.
        config.snapshot_nbytes = -1.0
        return config

    def run(hub=None):
        if pattern == "one-to-one":
            return run_one_to_one(
                model,
                negative(OneToOneConfig(train_iterations=10, ranks_per_component=4, write_interval=5)),
            )
        return run_many_to_one(
            model,
            negative(ManyToOneConfig(
                n_simulations=4, train_iterations=10, write_interval=5, poll_timeout=0.5,
            )),
        )

    grouped, ungrouped = both_ways(run)
    assert grouped == ungrouped
    assert grouped["counters"][2] == 0  # nothing was written
    lost_grouped, lost_ungrouped = captured[0]["lost"], captured[-1]["lost"]
    assert lost_grouped == lost_ungrouped > 0
    assert lost_grouped % 4 == 0  # every write step lost all four ranks


# -- Pattern 1's trainer ranks -----------------------------------------------------


def fig3_cell(**overrides) -> OneToOneConfig:
    """The config of a Fig 3 cell (``measure_one_to_one``), 120 iterations."""
    return OneToOneConfig(
        **{"train_iterations": 120, "snapshot_nbytes": 1e6, "ranks_per_component": 6, **overrides}
    )


def test_a_fig3_cell_is_two_processes_and_a_pinned_number_of_events():
    model, ctx = backend_models()["dragon"], pattern1_context(512)
    with watched() as watch:
        grouped = run_one_to_one(model, fig3_cell(), ctx=ctx)
    assert watch.names == ["sim0", "train0"]
    # Exact, not bounds: one event more is a change to the grouped program.
    # 297 sim steps, 120 train steps, 2 x 2 array writes, 14 polls (12 read
    # steps, 2 snapshots found), 2 x 2 array reads; per process its start,
    # its init sleep and its end.
    assert watch.processed == 297 + 120 + 4 + 14 + 4 + 2 * 3 == 445
    assert len(grouped.log._entries) == 445 - 4 == 441  # one entry per step, not per row
    with one_rank_per_group(), watched() as watch:
        per_rank = run_one_to_one(model, fig3_cell(), ctx=ctx)
    assert len(watch.names) == 12 and watch.processed == 6 * 445
    assert len(grouped.log) == len(per_rank.log) == 6 * 441 - 10  # the two INIT rows are rank 0's
    assert grouped.log.to_jsonl() == per_rank.log.to_jsonl()


def fig6_cell(backend: str = "dragon"):
    """A 128-node Fig 6 cell (``fig6_scaling.sweep_point``), 1 MB, 20 iterations."""
    write_ctx, read_ctx = pattern2_contexts(128)
    config = ManyToOneConfig(n_simulations=127, train_iterations=20, snapshot_nbytes=1e6)
    return run_many_to_one(
        backend_models()[backend], config, write_ctx=write_ctx, read_ctx=read_ctx
    )


def test_a_fig6_cell_is_two_processes_and_a_lane_group_per_ingest():
    with watched() as watch:
        grouped = fig6_cell()
    assert watch.names == ["sim0", "train", "lane0", "lane0"]
    # Exact, not bounds: one event more is a change to the grouped program.
    # 93 producer steps (the last wakes after the trainer stops), 9 write
    # columns, 20 train steps, two ingests of 11 columns (127 keys on 12
    # lanes) that each find their keys at the first poll, one poll and one
    # read per column; per process (sim0, train, two lane groups) its
    # start and its end.
    assert watch.processed == 93 + 9 + 20 + 2 * 11 * 2 + 4 * 2 == 174
    assert len(grouped.log._entries) == 174 - 8 == 166  # one entry per step, not per row
    with one_rank_per_group(), watched() as watch:
        per_rank = fig6_cell()
    # 127 producers and, per ingest, 12 lanes that the trainer joins with
    # an ``all_of``: each producer 93 steps, 9 writes, its start and end;
    # each ingest one poll and one read per key, each lane its start and end.
    assert len(watch.names) == 127 + 1 + 2 * 12
    assert watch.processed == 127 * (93 + 9 + 2) + 20 + 2 + 2 * (127 * 2 + 12 * 2 + 1) == 13788
    assert len(grouped.log) == len(per_rank.log) == 127 * (93 + 9) + 20 + 2 * 127 * 2 == 13482
    assert grouped.log.to_jsonl() == per_rank.log.to_jsonl()
    assert grouped.makespan == per_rank.makespan
    assert grouped.snapshots_read == per_rank.snapshots_read == 2 * 127


def test_a_grouped_fig6_cell_builds_one_store_per_group(monkeypatch):
    """The producer group writes through its lead's store and the lane
    groups read through the trainer's: two stores, not one per rank."""
    built = []

    class CountedStore(patterns.SimDataStore):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            built.append((self.component, self.rank))

    monkeypatch.setattr(patterns, "SimDataStore", CountedStore)
    grouped = fig6_cell()
    assert built == [("sim0", 0), ("train", 0)]
    built.clear()
    with one_rank_per_group():
        per_rank = fig6_cell()
    assert built == [(f"sim{i}", i) for i in range(127)] + [("train", 0)]
    assert grouped.log.to_jsonl() == per_rank.log.to_jsonl()


@pytest.mark.parametrize("lost", ["sim0_update0", "sim1_update0"])
def test_a_lane_group_that_stops_agreeing_is_an_error(monkeypatch, lost):
    """One producer's first update never staged, on the first lane or a
    later one: lanes that would take different branches raise instead of
    one of them deciding for all."""
    publish_column = patterns.SimStagingArea.publish_column

    def tampering(self, keys, nbytes):
        publish_column(self, [key for key in keys if key != lost], nbytes)

    # Group writes publish a column, a rank's own write a one-key column.
    monkeypatch.setattr(patterns.SimStagingArea, "publish_column", tampering)
    config = ManyToOneConfig(n_simulations=4, train_iterations=20, poll_timeout=0.05)
    model = backend_models()["dragon"]
    with pytest.raises(ReproError, match="lock-step group diverged.*sim0_update0.*sim1_update0"):
        run_many_to_one(model, config)
    # One process per lane has nothing to agree on: the lane of the lost
    # key times out on it and the same run completes.
    with one_rank_per_group():
        result = run_many_to_one(model, config)
    assert result.train_iterations == 20
    assert result.snapshots_read == 2 * 4 - 1


@pytest.mark.parametrize("producers", [1, 3])
def test_a_fault_plan_keeps_one_process_per_lane(monkeypatch, producers):
    """One producer is one group under a fault plan too; the lanes are
    still one process each and their ops pass the fault gate."""
    gated = []
    gate = patterns.SimDataStore._fault_gate

    def spy(self, faults):
        gated.append(self.component)
        return gate(self, faults)

    monkeypatch.setattr(patterns.SimDataStore, "_fault_gate", spy)
    config = ManyToOneConfig(n_simulations=producers, train_iterations=20, poll_timeout=2.0)
    with watched() as watch:
        run_many_to_one(backend_models()["redis"], config, fault_plan=crash_plan())
    lanes = [name for name in watch.names if name.startswith("lane")]
    assert lanes == [f"lane{j}" for j in range(producers)] * 2  # two ingests
    assert "train" in gated


@pytest.mark.parametrize(
    "overrides, kwargs, processes",
    [
        ({"ai_iter_time": Normal(0.06, 0.01, min=0.001)}, {}, 1 + 3),
        ({"sim_init_time": 2.0, "ai_init_time": 2.0}, {}, 3 + 3),
        ({}, {"fault_plan": crash_plan()}, 3 + 3),
        ({}, {"resilience": ResilienceConfig()}, 3 + 3),
    ],
    ids=["stochastic-trainers", "equal-init-times", "fault-plan", "explicit-resilience"],
)
def test_unprovable_lockstep_is_one_process_per_trainer_rank(overrides, kwargs, processes):
    config = fig3_cell(train_iterations=20, ranks_per_component=3, **overrides)
    with watched() as watch:
        run_one_to_one(backend_models()["redis"], config, **kwargs)
    assert [n for n in watch.names if n.startswith("train")] == ["train0", "train1", "train2"]
    # The injector's own processes are not pattern ranks.
    assert len([n for n in watch.names if n.startswith(("sim", "train"))]) == processes


@pytest.mark.parametrize("fate", ["missing", "another-size"])
def test_a_trainer_group_that_stops_agreeing_is_an_error(monkeypatch, fate):
    """Rank 1's first array staged late or at another size: ranks that would
    take different branches raise instead of one of them deciding for all."""
    publish_column = patterns.SimStagingArea.publish_column

    def tampering(self, keys, nbytes):
        for key in keys:
            if key != "r1_snap0_a0":
                publish_column(self, (key,), nbytes)
            elif fate != "missing":
                publish_column(self, (key,), nbytes + 1.0)

    # Group writes publish a column, a rank's own write a one-key column.
    monkeypatch.setattr(patterns.SimStagingArea, "publish_column", tampering)
    config = fig3_cell(ranks_per_component=3, write_interval=10)
    with pytest.raises(ReproError, match="lock-step group diverged.*r0_snap0_a0.*r1_snap0_a0"):
        run_one_to_one(backend_models()["dragon"], config)
    # One process per rank has nothing to agree on: the same run completes.
    with one_rank_per_group():
        assert run_one_to_one(backend_models()["dragon"], config).train_iterations == 120


# -- byte parity with the commit before grouping ----------------------------------


def area_disagreements(area, log) -> list[str]:
    """What ``area`` says about the run that ``log`` does not.

    Writes and reads are counted once each, every key written is staged
    (nothing is removed), and the gauge is the sequential sum, over the
    WRITE records in log order, of each record's size less the key's
    previous one — bit for bit.
    """
    sizes: dict = {}
    staged_bytes = 0.0
    writes = log.filter(kind=EventKind.WRITE)
    for record in writes:
        staged_bytes += record.nbytes - sizes.get(record.key, 0.0)
        sizes[record.key] = record.nbytes
    seen = {
        "total_writes": (area.total_writes, len(writes)),
        "total_reads": (area.total_reads, log.count(kind=EventKind.READ)),
        "staged keys": (len(area), len(sizes)),
        "staged_bytes": (area.staged_bytes.hex(), float(staged_bytes).hex()),
    }
    return [f"{what} {got!r} != {want!r}" for what, (got, want) in seen.items() if got != want]


@pytest.mark.parametrize("figure", ["fig3", "fig6"])
def test_every_figure_cell_matches_the_pre_grouping_digest(figure, monkeypatch):
    """Each cell's digest is the golden one, and its staging area agrees
    with its log (:func:`area_disagreements`)."""
    areas: list = []

    class KeptArea(patterns.SimStagingArea):
        def __init__(self) -> None:
            super().__init__()
            areas.append(self)

    monkeypatch.setattr(patterns, "SimStagingArea", KeptArea)
    golden = json.loads(cell_digests.GOLDEN_PATH.read_text())["cells"]
    specs = {n: s for n, s in cell_digests.cells().items() if n.startswith(figure)}
    assert len(specs) == {"fig3": 56, "fig6": 42}[figure]
    assert {n for n in golden if n.startswith(figure)} == set(specs)
    moved, disagree = [], {}
    for name, spec in specs.items():
        areas.clear()
        value, result = cell_digests.run_cell(*spec)
        if cell_digests.digest(value, result) != golden[name]:
            moved.append(name)
        (area,) = areas
        assert area.total_writes > 0 and area.total_reads > 0, name
        if problems := area_disagreements(area, result.log):
            disagree[name] = problems
    assert not moved, f"cells whose value, counters, makespan or EventLog moved: {moved}"
    assert not disagree, f"cells whose staging area disagrees with the log: {disagree}"
