"""Tests for typed configs and JSON loading."""

import json

import pytest

from repro.config import (
    AIConfig,
    KernelConfig,
    ServerConfig,
    SimulationConfig,
    load_ai_config,
    load_server_config,
    load_simulation_config,
    save_config,
)
from repro.config.distributions import Constant, Uniform
from repro.errors import ConfigError

LISTING2 = {
    "kernels": [
        {
            "name": "nekrs_iter",
            "run_time": 0.03147,
            "data_size": [256, 256],
            "mini_app_kernel": "MatMulSimple2D",
            "device": "xpu",
        }
    ]
}


def test_listing2_parses():
    cfg = load_simulation_config(LISTING2)
    assert len(cfg.kernels) == 1
    k = cfg.kernels[0]
    assert k.name == "nekrs_iter"
    assert k.mini_app_kernel == "MatMulSimple2D"
    assert k.device == "xpu"
    assert k.data_size == (256, 256)
    assert k.run_time == Constant(0.03147)
    assert k.run_count is None


def test_kernel_defaults():
    k = KernelConfig(mini_app_kernel="AXPY")
    assert k.name == "AXPY"
    assert k.device == "cpu"
    assert k.run_count == Constant(1.0)  # defaulted when neither given


def test_kernel_bad_device():
    with pytest.raises(ConfigError, match="device"):
        KernelConfig(mini_app_kernel="AXPY", device="tpu")


def test_kernel_bad_data_size():
    with pytest.raises(ConfigError, match="data_size"):
        KernelConfig(mini_app_kernel="AXPY", data_size=(0, 4))


def test_kernel_scalar_data_size():
    k = KernelConfig.from_dict({"mini_app_kernel": "AXPY", "data_size": 128})
    assert k.data_size == (128,)


def test_kernel_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown keys"):
        KernelConfig.from_dict({"mini_app_kernel": "AXPY", "runtime": 1.0})


def test_kernel_missing_mini_app_kernel():
    with pytest.raises(ConfigError, match="mini_app_kernel"):
        KernelConfig.from_dict({"name": "x"})


def test_kernel_stochastic_run_time():
    k = KernelConfig.from_dict(
        {
            "mini_app_kernel": "AXPY",
            "run_time": {"dist": "uniform", "low": 0.01, "high": 0.05},
        }
    )
    assert k.run_time == Uniform(0.01, 0.05)


def test_kernel_round_trip():
    k = KernelConfig.from_dict(LISTING2["kernels"][0])
    assert KernelConfig.from_dict(k.to_dict()) == k


def test_simulation_config_round_trip():
    cfg = load_simulation_config(LISTING2)
    again = SimulationConfig.from_dict(cfg.to_dict())
    assert again == cfg


def test_simulation_config_negative_iterations():
    with pytest.raises(ConfigError):
        SimulationConfig(iterations=-1)


def test_simulation_kernels_must_be_list():
    with pytest.raises(ConfigError):
        SimulationConfig.from_dict({"kernels": "MatMul"})


def test_ai_config_defaults_valid():
    cfg = AIConfig()
    assert cfg.hidden_dims == (128, 128)


@pytest.mark.parametrize(
    "field,value",
    [
        ("input_dim", 0),
        ("output_dim", -1),
        ("batch_size", 0),
        ("learning_rate", 0.0),
        ("iterations", -5),
        ("device", "gpu"),
        ("hidden_dims", (0,)),
    ],
)
def test_ai_config_validation(field, value):
    with pytest.raises(ConfigError):
        AIConfig(**{field: value})


def test_ai_config_from_dict_round_trip():
    cfg = load_ai_config(
        {
            "input_dim": 32,
            "hidden_dims": [64, 64],
            "output_dim": 8,
            "run_time": 0.061,
            "iterations": 100,
        }
    )
    assert cfg.run_time == Constant(0.061)
    assert AIConfig.from_dict(cfg.to_dict()) == cfg


def test_server_config_backends():
    for backend in ServerConfig.VALID_BACKENDS:
        assert ServerConfig(backend=backend).backend == backend


def test_server_config_bad_backend():
    with pytest.raises(ConfigError):
        ServerConfig(backend="memcached")


def test_server_config_validation():
    with pytest.raises(ConfigError):
        ServerConfig(n_shards=0)
    with pytest.raises(ConfigError):
        ServerConfig(stripe_count=0)


def test_server_config_round_trip():
    cfg = ServerConfig(backend="redis", host="10.0.0.1", cluster_nodes=("a", "b"))
    assert ServerConfig.from_dict(cfg.to_dict()) == cfg


def test_server_config_has_no_port():
    # ServerManager binds port 0 for each of its n_shards servers.
    with pytest.raises(ConfigError, match="port"):
        ServerConfig.from_dict({"backend": "redis", "port": 6390})


def test_load_from_json_file(tmp_path):
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(LISTING2))
    cfg = load_simulation_config(path)
    assert cfg.kernels[0].name == "nekrs_iter"


def test_load_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_simulation_config(tmp_path / "nope.json")


def test_load_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_simulation_config(path)


def test_load_non_object_json(tmp_path):
    path = tmp_path / "list.json"
    path.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_simulation_config(path)


def test_load_wrong_type():
    with pytest.raises(ConfigError):
        load_simulation_config(42)  # type: ignore[arg-type]


def test_save_and_reload(tmp_path):
    cfg = load_simulation_config(LISTING2)
    path = tmp_path / "out.json"
    save_config(cfg, path)
    assert load_simulation_config(path) == cfg


def test_save_requires_to_dict(tmp_path):
    with pytest.raises(ConfigError):
        save_config(object(), tmp_path / "x.json")


def test_load_server_config_from_file(tmp_path):
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"backend": "dragon", "n_shards": 4}))
    cfg = load_server_config(path)
    assert cfg.backend == "dragon"
    assert cfg.n_shards == 4
