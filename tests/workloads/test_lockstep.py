"""Lock-step simulation ranks run as one DES process — and nothing shows.

A group of ranks that provably advance together (deterministic iteration
time, healthy, contiguous calendar entries) shares one sleep
per step. These tests pin that the grouped program and the
one-process-per-rank program are indistinguishable from outside: same
``EventLog`` bytes, counters, makespan and, under a hub, the same tracer
and metrics content. The one-rank-per-group side is driven by patching
the internal grouping function (there is no public switch).
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.workloads.patterns as patterns
from repro.config.distributions import Constant, Normal
from repro.experiments.common import backend_models, pattern1_context
from repro.faults import FaultKind, FaultPlan, FaultSpec
from repro.telemetry import Telemetry
from repro.transport.resilience import ResilienceConfig
from repro.workloads.patterns import (
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)
from tests.des.goldens import one_rank_per_group
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


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=st.sampled_from(["node-local", "dragon", "redis", "filesystem"]),
    ranks=st.integers(1, 16),
    write_interval=st.integers(1, 4),
    read_interval=st.integers(1, 4),
    arrays=st.integers(1, 3),
    nbytes=SIZES,
    sim_init=INIT_TIMES,
    ai_init=INIT_TIMES,
    sim_iter=ITER_TIMES,
    ai_iter=ITER_TIMES,
    train_iterations=st.integers(0, 12),
    traced=st.booleans(),
)
def test_one_to_one_grouped_equals_per_rank(
    backend, ranks, write_interval, read_interval, arrays, nbytes,
    sim_init, ai_init, sim_iter, ai_iter, train_iterations, traced,
):
    config = OneToOneConfig(
        sim_iter_time=Constant(sim_iter),
        ai_iter_time=Constant(ai_iter),
        write_interval=write_interval,
        read_interval=read_interval,
        train_iterations=train_iterations,
        snapshot_nbytes=nbytes,
        arrays_per_snapshot=arrays,
        ranks_per_component=ranks,
        sim_init_time=sim_init,
        ai_init_time=ai_init,
    )
    model, ctx = backend_models()[backend], pattern1_context(8)
    grouped, ungrouped = both_ways(
        lambda hub: run_one_to_one(model, config, ctx=ctx, telemetry=hub), traced
    )
    assert grouped == ungrouped


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    backend=st.sampled_from(["dragon", "redis", "filesystem"]),
    producers=st.integers(1, 16),
    write_interval=st.integers(1, 4),
    read_interval=st.integers(1, 4),
    reader_lanes=st.integers(1, 4),
    nbytes=SIZES,
    sim_iter=ITER_TIMES,
    ai_iter=ITER_TIMES,
    train_iterations=st.integers(0, 12),
    traced=st.booleans(),
)
def test_many_to_one_grouped_equals_per_rank(
    backend, producers, write_interval, read_interval, reader_lanes, nbytes,
    sim_iter, ai_iter, train_iterations, traced,
):
    config = ManyToOneConfig(
        n_simulations=producers,
        sim_iter_time=Constant(sim_iter),
        ai_iter_time=Constant(ai_iter),
        write_interval=write_interval,
        read_interval=read_interval,
        train_iterations=train_iterations,
        snapshot_nbytes=nbytes,
        reader_lanes=reader_lanes,
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
    """Every grouping decision the pattern runners make in this process."""
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
    assert groups_seen == [[[0, 1, 2, 3]], [[0, 1, 2, 3, 4]]]


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
    assert groups_seen == [[[0], [1], [2]], [[0], [1], [2]]]


def test_disabled_fault_plan_still_groups(groups_seen):
    plan = crash_plan()
    plan.enabled = False
    run_many_to_one(
        backend_models()["redis"],
        ManyToOneConfig(n_simulations=3, train_iterations=5),
        fault_plan=plan,
    )
    assert groups_seen == [[[0, 1, 2]]]


@pytest.mark.parametrize("pattern", ["one-to-one", "many-to-one"])
def test_negative_size_counts_every_rank_as_lost(monkeypatch, pattern):
    captured = []
    original = patterns._sim_ranks

    def spy(env, log, stop, counters, *args, **kwargs):
        captured.append(counters)
        return original(env, log, stop, counters, *args, **kwargs)

    monkeypatch.setattr(patterns, "_sim_ranks", spy)
    model = backend_models()["dragon"]

    def run(hub=None):
        if pattern == "one-to-one":
            return run_one_to_one(
                model,
                OneToOneConfig(
                    train_iterations=10, ranks_per_component=4,
                    write_interval=5, snapshot_nbytes=-1.0,
                ),
            )
        return run_many_to_one(
            model,
            ManyToOneConfig(
                n_simulations=4, train_iterations=10, write_interval=5,
                snapshot_nbytes=-1.0, poll_timeout=0.5,
            ),
        )

    grouped, ungrouped = both_ways(run)
    assert grouped == ungrouped
    assert grouped["counters"][2] == 0  # nothing was written
    lost_grouped, lost_ungrouped = captured[0]["lost"], captured[-1]["lost"]
    assert lost_grouped == lost_ungrouped > 0
    assert lost_grouped % 4 == 0  # every write step lost all four ranks


# -- byte parity with the commit before grouping ----------------------------------


@pytest.mark.parametrize("figure", ["fig3", "fig6"])
def test_every_figure_cell_matches_the_pre_grouping_digest(figure):
    golden = json.loads(cell_digests.GOLDEN_PATH.read_text())["cells"]
    specs = {n: s for n, s in cell_digests.cells().items() if n.startswith(figure)}
    assert len(specs) == {"fig3": 56, "fig6": 42}[figure]
    assert {n for n in golden if n.startswith(figure)} == set(specs)
    moved = [n for n, spec in specs.items() if cell_digests.record_cell(*spec) != golden[n]]
    assert not moved, f"cells whose value, counters, makespan or EventLog moved: {moved}"
