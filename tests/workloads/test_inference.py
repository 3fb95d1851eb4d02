"""Tests for the coupled-inference (latency-limited) pattern."""

import pytest

from repro.errors import ConfigError
from repro.transport.models import TransportOpContext
from repro.workloads.inference import InferenceLoopConfig, run_inference_loop


def models():
    from repro.experiments.common import backend_models

    return backend_models()


def small_config(**overrides):
    defaults = dict(iterations=30)
    defaults.update(overrides)
    return InferenceLoopConfig(**defaults)


def test_completes_all_iterations():
    res = run_inference_loop(models()["node-local"], small_config())
    assert res.iterations == 30
    assert res.mean_round_trip > 0


def test_round_trip_includes_inference_time():
    from repro.config.distributions import Constant

    res = run_inference_loop(
        models()["node-local"], small_config(infer_time=Constant(0.005))
    )
    assert res.mean_round_trip > 0.005


def test_higher_latency_backend_has_longer_round_trip():
    fast = run_inference_loop(models()["node-local"], small_config())
    slow = run_inference_loop(
        models()["filesystem"],
        small_config(),
        ctx=TransportOpContext(local=True, clients_per_server=12, concurrent_clients=96),
    )
    assert slow.mean_round_trip > 2 * fast.mean_round_trip


def test_transport_fraction_grows_with_backend_latency():
    fast = run_inference_loop(models()["node-local"], small_config())
    slow = run_inference_loop(
        models()["filesystem"],
        small_config(),
        ctx=TransportOpContext(local=True, clients_per_server=12, concurrent_clients=96),
    )
    assert 0.0 <= fast.transport_fraction <= 1.0
    assert slow.transport_fraction > fast.transport_fraction


def test_latency_limited_regime():
    """The intro's claim: transfer cost can dominate the inference cost."""
    from repro.config.distributions import Constant

    res = run_inference_loop(
        models()["filesystem"],
        small_config(infer_time=Constant(0.0005)),
        ctx=TransportOpContext(local=True, clients_per_server=12, concurrent_clients=96),
    )
    # Round trip >> inference compute.
    assert res.mean_round_trip > 5 * 0.0005


def test_event_log_contains_both_components():
    res = run_inference_loop(models()["dragon"], small_config())
    assert set(res.log.components()) >= {"sim", "infer"}


def test_deterministic_by_seed():
    a = run_inference_loop(models()["dragon"], small_config(seed=1))
    b = run_inference_loop(models()["dragon"], small_config(seed=1))
    assert a.makespan == b.makespan


def test_config_validation():
    with pytest.raises(ConfigError):
        InferenceLoopConfig(iterations=-1)
    with pytest.raises(ConfigError):
        InferenceLoopConfig(request_nbytes=-1)
    with pytest.raises(ConfigError):
        InferenceLoopConfig(poll_interval=0.0)


def test_zero_iterations():
    res = run_inference_loop(models()["node-local"], small_config(iterations=0))
    assert res.iterations == 0
    assert res.mean_round_trip == 0.0
    assert res.transport_fraction == 0.0


def test_extension_driver(driver_result):
    result = driver_result("ext_inference")
    assert set(result.rows) == {"node-local", "dragon", "redis", "filesystem", "streaming"}
    # Latency ordering: in-memory backends beat the filesystem.
    assert result.rows["filesystem"][0] > result.rows["dragon"][0]
    assert result.rows["filesystem"][0] > result.rows["node-local"][0]
    assert "round trip" in result.render()
