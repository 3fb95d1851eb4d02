"""Benchmark: Fig 2 — execution timeline comparison."""

from conftest import run_once
from repro.experiments import fig2_timeline


def test_fig2(benchmark):
    result = run_once(benchmark, fig2_timeline.run)
    assert result.sim_similarity > 0.8
    assert result.train_similarity > 0.8
    print()
    print(result.render(width=100))
