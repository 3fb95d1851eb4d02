"""Tests for the shared experiment infrastructure."""

import pytest

from repro.experiments.common import (
    PATTERN1_BACKENDS,
    PATTERN2_BACKENDS,
    SIZE_SWEEP_BYTES,
    SIZE_SWEEP_MB,
    backend_models,
    measure_one_to_one,
    measurement_from_log,
    pattern1_context,
)
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.stats import iteration_time_summary
from repro.transport.models import MB
from repro.workloads.patterns import OneToOneConfig, run_one_to_one


def test_size_sweep_matches_paper():
    """0.4 MB to 32 MB (§4.1.2)."""
    assert SIZE_SWEEP_MB[0] == 0.4
    assert SIZE_SWEEP_MB[-1] == 32
    assert SIZE_SWEEP_BYTES == [m * MB for m in SIZE_SWEEP_MB]
    assert SIZE_SWEEP_MB == sorted(SIZE_SWEEP_MB)


def test_backend_sets():
    assert set(PATTERN1_BACKENDS) == {"node-local", "dragon", "redis", "filesystem"}
    # node-local excluded from pattern 2, as in the paper
    assert set(PATTERN2_BACKENDS) == {"redis", "dragon", "filesystem"}


def test_pattern1_context_scales_clients():
    ctx8 = pattern1_context(8)
    ctx512 = pattern1_context(512)
    assert ctx8.local and ctx512.local
    assert ctx8.clients_per_server == ctx512.clients_per_server == 12
    assert ctx8.concurrent_clients == 96
    assert ctx512.concurrent_clients == 6144


def test_measure_one_to_one_returns_consistent_metrics():
    models = backend_models()
    m = measure_one_to_one(models["node-local"], 1 * MB, n_nodes=8, train_iterations=100)
    assert m.read_throughput > 0
    assert m.write_throughput > 0
    # write and read move the same payloads through the same model
    assert m.read_throughput == pytest.approx(m.write_throughput, rel=0.01)
    assert m.sim_iter_time == pytest.approx(0.03147, rel=1e-6)
    assert m.ai_iter_time == pytest.approx(0.061, rel=1e-6)
    # throughput == nbytes / mean time (self-consistency)
    assert m.write_throughput == pytest.approx(1 * MB / m.write_time, rel=0.01)


def test_measure_one_to_one_deterministic():
    models = backend_models()
    a = measure_one_to_one(models["dragon"], 2 * MB, n_nodes=8, train_iterations=100)
    b = measure_one_to_one(models["dragon"], 2 * MB, n_nodes=8, train_iterations=100)
    assert a == b


@pytest.mark.parametrize("backend", PATTERN1_BACKENDS)
def test_measurement_means_equal_the_summary_means(backend):
    """A cell takes its two iteration means straight from the durations;
    they are the very floats ``iteration_time_summary(...).mean`` gives."""
    config = OneToOneConfig(
        train_iterations=60, snapshot_nbytes=2 * MB, ranks_per_component=6
    )
    log = run_one_to_one(
        backend_models()[backend], config, ctx=pattern1_context(8)
    ).log
    m = measurement_from_log(log)
    assert m.sim_iter_time == iteration_time_summary(log, "sim", EventKind.COMPUTE).mean
    assert m.ai_iter_time == iteration_time_summary(log, "train", EventKind.TRAIN).mean
    assert m.sim_iter_time > 0 and m.ai_iter_time > 0


def test_measurement_of_an_empty_log_reads_zero_means():
    m = measurement_from_log(EventLog())
    assert (m.sim_iter_time, m.ai_iter_time) == (0.0, 0.0)
