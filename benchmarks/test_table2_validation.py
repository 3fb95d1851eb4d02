"""Benchmark: Table 2 — event-count fidelity, original vs mini-app."""

from conftest import run_once
from repro.experiments import table2_validation


def test_table2(benchmark):
    result = run_once(benchmark, table2_validation.run)
    print()
    print(result.render())
