"""Tests for the AI component."""

import math

import numpy as np
import pytest

from repro.core import AI
from repro.errors import ConfigError, MLError
from repro.ml import synthetic_snapshot
from repro.telemetry import EventKind, VirtualClock
from repro.transport import ServerManager

AI_CONFIG = {
    "input_dim": 8,
    "hidden_dims": [16],
    "output_dim": 4,
    "batch_size": 16,
    "run_time": 0.003,
}


def make_ai(**overrides):
    cfg = {**AI_CONFIG, **overrides}
    return AI("train", config=cfg, clock=VirtualClock(auto_advance=1e-5))


def test_ai_records_init():
    ai = make_ai()
    assert len(ai.event_log.filter(kind=EventKind.INIT)) == 1


def test_train_without_data_emulates_stall():
    ai = make_ai()
    duration = ai.train_iteration()
    assert math.isnan(ai.last_loss)
    assert duration == pytest.approx(0.003, rel=0.2)
    assert len(ai.event_log.filter(kind=EventKind.TRAIN)) == 1


def test_train_with_data_reduces_loss():
    ai = make_ai(run_time=None)
    rng = np.random.default_rng(0)
    ai.add_training_data(*synthetic_snapshot(400, 8, 4, rng))
    first_losses = [ai.train_iteration() or ai.last_loss for _ in range(5)]
    for _ in range(300):
        ai.train_iteration()
    assert ai.last_loss < 0.5 * np.nanmean(ai.losses[:5])


def test_run_time_paces_training():
    ai = make_ai()
    ai.add_training_data(np.ones((32, 8)), np.zeros((32, 4)))
    durations = [ai.train_iteration() for _ in range(10)]
    assert np.mean(durations) == pytest.approx(0.003, rel=0.2)
    assert np.std(durations) < 0.001


def test_run_counts_iterations():
    ai = make_ai()
    ai.run(7)
    assert ai.iterations_run == 7
    assert len(ai.event_log.filter(kind=EventKind.TRAIN)) == 7


def test_run_negative_rejected():
    with pytest.raises(ConfigError):
        make_ai().run(-1)


def test_run_uses_config_iterations():
    ai = AI(
        "train",
        config={**AI_CONFIG, "iterations": 4},
        clock=VirtualClock(auto_advance=1e-5),
    )
    ai.run()
    assert ai.iterations_run == 4


def test_predict_shape():
    ai = make_ai()
    out = ai.predict(np.ones(8))
    assert out.shape == (1, 4)


def test_ingest_staged_roundtrip(tmp_path):
    with ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)}) as m:
        ai = AI(
            "train",
            config=AI_CONFIG,
            server_info=m.get_server_info(),
            clock=VirtualClock(auto_advance=1e-5),
        )
        assert not ai.ingest_staged("snap0")  # nothing staged yet, no block
        rng = np.random.default_rng(1)
        x, y = synthetic_snapshot(50, 8, 4, rng)
        ai.stage_write("snap0", (x, y))
        assert ai.ingest_staged("snap0")
        assert len(ai.dataset) == 50
        ai.close()


def test_ingest_staged_bad_payload(tmp_path):
    with ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)}) as m:
        ai = AI("train", config=AI_CONFIG, server_info=m.get_server_info())
        ai.stage_write("bad", 42)
        with pytest.raises(MLError):
            ai.ingest_staged("bad")
        ai.close()


def test_last_loss_nan_before_training():
    assert math.isnan(make_ai().last_loss)
