"""Benchmark: Table 3 — iteration-time statistics, original vs mini-app."""

from conftest import run_once
from repro.experiments import table3_iterstats


def test_table3(benchmark):
    result = run_once(benchmark, table3_iterstats.run)
    print()
    print(result.render())
