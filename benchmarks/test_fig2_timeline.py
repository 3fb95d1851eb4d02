"""Benchmark: Fig 2 — execution timeline comparison."""

from conftest import run_once
from repro.experiments import fig2_timeline


def test_fig2(benchmark):
    result = run_once(benchmark, fig2_timeline.run)
    print()
    print(result.render(width=100))
