"""The sample-count rule behind every reported percentile."""

from __future__ import annotations

import statistics

import pytest
from e2elib import stats


def test_a_percentile_needs_ten_samples_beyond_it():
    assert stats.supported(40, 50.0)  # 40 SUBMITs: 20 beyond the median
    assert not stats.supported(40, 95.0)  # ... but only 2 beyond p95
    assert stats.supported(200, 95.0) and not stats.supported(199, 95.0)
    assert stats.supported(20, 50.0) and not stats.supported(19, 50.0)
    assert stats.supported(4000, 99.0) and not stats.supported(4000, 99.9)


def test_percentile_interpolates_and_validates():
    data = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(data, 0) == 1.0
    assert stats.percentile(data, 50) == 3.0
    assert stats.percentile(data, 100) == 5.0
    assert stats.percentile([1.0, 2.0], 50) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile(data, 101)


def test_spread_is_the_drivers_interquartile_share():
    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q2, q3)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([7.0]) == 0.0
