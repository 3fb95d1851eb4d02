"""Benchmark: Fig 3 — Pattern 1 throughput vs size at 8 and 512 nodes."""

from conftest import run_once
from repro.experiments import fig3_throughput


def test_fig3(benchmark):
    result = run_once(benchmark, fig3_throughput.run)
    print()
    print(result.render())
