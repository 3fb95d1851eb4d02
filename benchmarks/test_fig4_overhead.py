"""Benchmark: Fig 4 — compute vs transport time per message."""

from conftest import run_once
from repro.experiments import fig4_overhead


def test_fig4(benchmark):
    result = run_once(benchmark, fig4_overhead.run)
    print()
    print(result.render())
