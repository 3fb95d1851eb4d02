"""Tests for the DES pattern simulators."""

import pytest

from repro.config.distributions import Constant
from repro.errors import ConfigError
from repro.telemetry import EventKind, event_counts, iteration_time_summary
from repro.transport.models import (
    NodeLocalBackendModel,
    RedisBackendModel,
    TransportOpContext,
    aurora_backend_models,
)
from repro.workloads.patterns import (
    GNN_ITER_TIME,
    NEKRS_ITER_TIME,
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)


def small_one_to_one(**overrides):
    defaults = dict(
        train_iterations=100,
        ranks_per_component=1,
        write_interval=20,
        read_interval=10,
    )
    defaults.update(overrides)
    return OneToOneConfig(**defaults)


def test_one_to_one_completes_training():
    result = run_one_to_one(NodeLocalBackendModel(), small_one_to_one())
    assert result.train_iterations == 100


def test_one_to_one_sim_stops_after_training():
    """The AI steers the workflow: the sim runs from the end of its init
    until the AI finishes, so its iteration count follows the makespan."""
    config = small_one_to_one()
    result = run_one_to_one(NodeLocalBackendModel(), config)
    expected = (result.makespan - config.sim_init_time) / NEKRS_ITER_TIME
    assert result.sim_iterations == pytest.approx(expected, rel=0.05)
    # and it is bounded below by the AI's active training span
    assert result.sim_iterations >= 100 * GNN_ITER_TIME / NEKRS_ITER_TIME


def test_one_to_one_write_read_counts_balance():
    result = run_one_to_one(NodeLocalBackendModel(), small_one_to_one())
    assert result.snapshots_written >= 1
    # Async reads drain everything written before training completes.
    assert abs(result.snapshots_written - result.snapshots_read) <= 2


def test_one_to_one_transport_events_in_log():
    config = small_one_to_one(arrays_per_snapshot=2)
    result = run_one_to_one(NodeLocalBackendModel(), config)
    counts = event_counts(result.log, "sim")
    assert counts["timestep"] == result.sim_iterations
    assert counts["data_transport"] == 2 * result.snapshots_written
    train_counts = event_counts(result.log, "train")
    assert train_counts["timestep"] == 100
    assert train_counts["data_transport"] == 2 * result.snapshots_read


def test_one_to_one_iteration_times_match_config():
    result = run_one_to_one(NodeLocalBackendModel(), small_one_to_one())
    s = iteration_time_summary(result.log, "sim", EventKind.COMPUTE)
    assert s.mean == pytest.approx(NEKRS_ITER_TIME, rel=1e-6)
    assert s.std == pytest.approx(0.0, abs=1e-9)


def test_one_to_one_multiple_ranks():
    config = small_one_to_one(ranks_per_component=3)
    result = run_one_to_one(NodeLocalBackendModel(), config)
    writes = result.log.filter(kind=EventKind.WRITE)
    assert {r.rank for r in writes} == {0, 1, 2}


def test_one_to_one_init_events_present():
    result = run_one_to_one(NodeLocalBackendModel(), small_one_to_one())
    inits = result.log.filter(kind=EventKind.INIT)
    assert {r.component for r in inits} == {"sim", "train"}


def test_one_to_one_deterministic_by_seed():
    a = run_one_to_one(NodeLocalBackendModel(), small_one_to_one(seed=5))
    b = run_one_to_one(NodeLocalBackendModel(), small_one_to_one(seed=5))
    assert a.makespan == b.makespan
    assert a.sim_iterations == b.sim_iterations


def test_one_to_one_seed_changes_stochastic_run():
    from repro.config.distributions import LogNormal

    cfg_a = small_one_to_one(sim_iter_time=LogNormal(mean=0.03, sigma=0.5), seed=1)
    cfg_b = small_one_to_one(sim_iter_time=LogNormal(mean=0.03, sigma=0.5), seed=2)
    a = run_one_to_one(NodeLocalBackendModel(), cfg_a)
    b = run_one_to_one(NodeLocalBackendModel(), cfg_b)
    assert a.makespan != b.makespan


def test_one_to_one_config_validation():
    with pytest.raises(ConfigError):
        OneToOneConfig(write_interval=0)
    with pytest.raises(ConfigError):
        OneToOneConfig(train_iterations=-1)
    with pytest.raises(ConfigError):
        OneToOneConfig(ranks_per_component=0)


@pytest.mark.parametrize("config", [OneToOneConfig, ManyToOneConfig])
@pytest.mark.parametrize("nbytes", [-1.0, float("nan"), float("inf")], ids=["neg", "nan", "inf"])
def test_a_snapshot_size_that_is_not_a_finite_byte_count_is_refused(config, nbytes):
    # Accepted, -1 ran to the end moving nothing and nan died mid-run.
    with pytest.raises(ConfigError, match="snapshot_nbytes must be finite and >= 0"):
        config(snapshot_nbytes=nbytes)
    assert config(snapshot_nbytes=0.0).snapshot_nbytes == 0.0


def test_one_to_one_slower_backend_same_event_counts():
    """Transport backend affects time, not the event schedule."""
    fast = run_one_to_one(NodeLocalBackendModel(), small_one_to_one())
    slow = run_one_to_one(
        RedisBackendModel(),
        small_one_to_one(),
        ctx=TransportOpContext(local=True, clients_per_server=12),
    )
    assert fast.train_iterations == slow.train_iterations
    assert abs(fast.snapshots_written - slow.snapshots_written) <= 1


# ---------------------------------------------------------------------------
# Many-to-one
# ---------------------------------------------------------------------------


def small_many_to_one(**overrides):
    defaults = dict(n_simulations=4, train_iterations=60)
    defaults.update(overrides)
    return ManyToOneConfig(**defaults)


def models():
    return aurora_backend_models()


def test_many_to_one_completes():
    result = run_many_to_one(models()["dragon"], small_many_to_one())
    assert result.train_iterations == 60


def test_many_to_one_reads_all_producers_every_update():
    config = small_many_to_one(n_simulations=5, train_iterations=40, read_interval=10)
    result = run_many_to_one(models()["filesystem"], config)
    # 4 updates x 5 producers
    assert result.snapshots_read == 4 * 5


def test_many_to_one_blocking_read_shows_in_runtime():
    """Reading from many slow producers must lengthen the training lane."""
    fast = run_many_to_one(models()["filesystem"], small_many_to_one())
    slow = run_many_to_one(
        models()["redis"],
        small_many_to_one(),
        read_ctx=TransportOpContext(
            local=False, fan_in=4, concurrent_clients=5, clients_per_server=12
        ),
    )
    fast_train = fast.log.filter(component="train").makespan()
    slow_train = slow.log.filter(component="train").makespan()
    assert slow_train > fast_train


def test_many_to_one_reader_lanes_parallelize():
    many_lanes = run_many_to_one(
        models()["dragon"], small_many_to_one(n_simulations=12, reader_lanes=12)
    )
    one_lane = run_many_to_one(
        models()["dragon"], small_many_to_one(n_simulations=12, reader_lanes=1)
    )
    assert many_lanes.makespan < one_lane.makespan


def test_many_to_one_config_validation():
    with pytest.raises(ConfigError):
        ManyToOneConfig(n_simulations=0)
    with pytest.raises(ConfigError):
        ManyToOneConfig(reader_lanes=0)
    with pytest.raises(ConfigError):
        ManyToOneConfig(train_iterations=-2)


def test_many_to_one_producers_stop_after_training():
    result = run_many_to_one(models()["dragon"], small_many_to_one())
    # Producers were signalled to stop; the run terminated (env drained).
    assert result.sim_iterations > 0
    assert result.makespan < 60 * GNN_ITER_TIME * 3


def test_many_to_one_deterministic():
    a = run_many_to_one(models()["dragon"], small_many_to_one(seed=3))
    b = run_many_to_one(models()["dragon"], small_many_to_one(seed=3))
    assert a.makespan == b.makespan
