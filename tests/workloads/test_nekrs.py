"""Tests for the nekRS-ML validation setup and real-mode runner.

The validation pair itself (Tables 2 and 3) is checked by the claims
table, ``repro.experiments.claims``, at the paper's scale.
"""

import numpy as np
import pytest

from repro.telemetry import EventKind
from repro.workloads import (
    RealOneToOneConfig,
    nekrs_ai_config,
    nekrs_simulation_config,
    run_one_to_one_real,
)
from repro.workloads.nekrs import _lognormal_from_mean_std


def test_nekrs_simulation_config_matches_listing2():
    cfg = nekrs_simulation_config()
    kernel = cfg["kernels"][0]
    assert kernel["name"] == "nekrs_iter"
    assert kernel["run_time"] == 0.03147
    assert kernel["data_size"] == [256, 256]
    assert kernel["mini_app_kernel"] == "MatMulSimple2D"
    assert kernel["device"] == "xpu"


def test_nekrs_ai_config_iteration_time():
    cfg = nekrs_ai_config()
    assert cfg["run_time"] == 0.061


def test_lognormal_matches_measured_moments():
    rng = np.random.default_rng(0)
    dist = _lognormal_from_mean_std(0.0312, 0.0273)
    samples = np.array([dist.sample(rng) for _ in range(40000)])
    assert samples.mean() == pytest.approx(0.0312, rel=0.03)
    assert samples.std() == pytest.approx(0.0273, rel=0.1)


# ---------------------------------------------------------------------------
# Real-mode integration (small, wall-clock)
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", ["node-local", "dragon"])
def test_real_one_to_one_runs_end_to_end(tmp_path, backend):
    from repro.transport import ServerManager

    config = {"backend": backend, "n_shards": 1}
    if backend == "node-local":
        config["path"] = str(tmp_path)
    with ServerManager("stage", config=config) as manager:
        result = run_one_to_one_real(
            manager.get_server_info(),
            RealOneToOneConfig(
                train_iterations=20,
                write_interval=5,
                read_interval=4,
                sim_iter_time=0.002,
                ai_iter_time=0.003,
            ),
        )
    assert result.snapshots_written >= 1
    assert result.snapshots_read >= 1
    assert result.snapshots_read <= result.snapshots_written
    assert result.sim_iterations > 0
    # Both components logged compute/train and transport events.
    assert len(result.log.filter(component="sim", kind=EventKind.COMPUTE)) > 0
    assert len(result.log.filter(component="train", kind=EventKind.TRAIN)) == 20
    assert len(result.log.filter(kind=EventKind.WRITE)) == result.snapshots_written
    assert np.isfinite(result.final_loss) or result.snapshots_read == 0


def test_a_real_run_stages_a_snapshot_when_the_trainer_finishes_first(tmp_path):
    """The trainer's two iterations end long before the simulation's 50th,
    its first write: the run still stages one snapshot, as it stops, without
    running on to the write_interval."""
    from repro.telemetry import Telemetry
    from repro.transport import ServerManager

    hub = Telemetry()
    config = {"backend": "node-local", "n_shards": 1, "path": str(tmp_path)}
    with ServerManager("stage", config=config) as manager:
        result = run_one_to_one_real(manager.get_server_info(), RealOneToOneConfig(
            train_iterations=2, write_interval=50, read_interval=1,
            sim_iter_time=0.2, ai_iter_time=0.001,
        ), telemetry=hub)
    assert result.snapshots_written == 1
    assert result.sim_iterations < 50
    writes = hub.metrics.get("transport.write.ops{backend=node-local}")
    assert writes is not None and writes.value == result.snapshots_written


def test_real_one_to_one_config_validation():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        RealOneToOneConfig(train_iterations=0)
    with pytest.raises(ConfigError):
        RealOneToOneConfig(write_interval=0)
