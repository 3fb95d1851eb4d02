"""Benchmark: Table 3 — iteration-time statistics, original vs mini-app."""

from conftest import run_once
from repro.experiments import table3_iterstats


def test_table3(benchmark):
    result = run_once(benchmark, table3_iterstats.run)
    assert result.sim.mean_relative_error < 0.10
    assert result.train.mean_relative_error < 0.05
    assert result.sim.miniapp.std < 0.01 * result.sim.miniapp.mean
    print()
    print(result.render())
