"""Segment arithmetic of the host-speed calibration."""

from __future__ import annotations

import time

import pytest
from e2elib.speed import Samples, SpeedClock


def test_a_segment_is_divided_by_the_units_around_it():
    clock = SpeedClock()
    clock.start()
    time.sleep(0.02)
    factor = clock.lap()
    assert factor > 0
    assert 0.02 <= clock.raw_s < 0.03  # the calibration units are in no segment
    assert clock.norm_s == pytest.approx(clock.raw_s / factor)
    clock.reset()
    assert clock.raw_s == clock.norm_s == 0.0


def test_a_raw_segment_is_not_scaled():
    clock = SpeedClock()
    clock.start()
    time.sleep(0.02)
    assert clock.lap(raw=True) == 1.0
    assert clock.norm_s == clock.raw_s >= 0.02


def test_samples_settle_once():
    samples = Samples([2.0, 4.0])
    samples.settle(2.0)
    samples.append(9.0)
    samples.settle(3.0)
    assert samples == [1.0, 2.0, 3.0]
    samples.add_settled([5.0])
    samples.settle(10.0)
    assert samples == [1.0, 2.0, 3.0, 5.0]
    samples.clear()
    samples.append(8.0)
    samples.settle(2.0)
    assert samples == [4.0]
