"""Benchmark: Fig 6 — Pattern 2 training runtime per iteration, scaled."""

from conftest import run_once
from repro.experiments import fig6_scaling


def test_fig6(benchmark):
    result = run_once(benchmark, fig6_scaling.run)
    print()
    print(result.render())
