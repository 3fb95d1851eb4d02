"""Benchmark: Fig 5 — Pattern 2 at two nodes (non-local read, local write)."""

from conftest import run_once
from repro.experiments import fig5_twonode


def test_fig5(benchmark):
    result = run_once(benchmark, fig5_twonode.run)
    print()
    print(result.render())
