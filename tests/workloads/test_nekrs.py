"""Tests for the nekRS-ML validation setup and real-mode runner."""

import numpy as np
import pytest

from repro.core import compare_event_counts, compare_iteration_stats
from repro.telemetry import EventKind
from repro.workloads import (
    NekrsValidationSetup,
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


class TestValidationPair:
    """The Table 2/3 acceptance criteria at reduced scale."""

    @pytest.fixture(scope="class")
    def pair(self):
        setup = NekrsValidationSetup(train_iterations=500)
        return setup.run_original(), setup.run_miniapp()

    def test_train_timesteps_exact_match(self, pair):
        original, miniapp = pair
        cmp = compare_event_counts(original.log, miniapp.log, "train")
        assert cmp.original_timesteps == cmp.miniapp_timesteps == 500

    def test_sim_timesteps_within_5_percent(self, pair):
        original, miniapp = pair
        cmp = compare_event_counts(original.log, miniapp.log, "sim")
        assert cmp.timestep_relative_error < 0.05  # paper: ~4%

    def test_transport_counts_close(self, pair):
        original, miniapp = pair
        for component in ("sim", "train"):
            cmp = compare_event_counts(original.log, miniapp.log, component)
            assert cmp.transport_relative_error <= 0.15, component

    def test_iteration_means_close(self, pair):
        original, miniapp = pair
        sim = compare_iteration_stats(original.log, miniapp.log, "sim", EventKind.COMPUTE)
        train = compare_iteration_stats(
            original.log, miniapp.log, "train", EventKind.TRAIN
        )
        assert sim.mean_relative_error < 0.10
        assert train.mean_relative_error < 0.05

    def test_miniapp_std_far_below_original(self, pair):
        """Table 3's signature: the mini-app pins iteration durations."""
        original, miniapp = pair
        sim = compare_iteration_stats(original.log, miniapp.log, "sim", EventKind.COMPUTE)
        assert sim.original.std > 0.5 * sim.original.mean
        assert sim.miniapp.std < 0.01 * sim.miniapp.mean


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


def test_real_one_to_one_config_validation():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError):
        RealOneToOneConfig(train_iterations=0)
    with pytest.raises(ConfigError):
        RealOneToOneConfig(write_interval=0)
