"""Benchmark: Fig 6 — Pattern 2 training runtime per iteration, scaled."""

from conftest import run_once
from repro.experiments import fig6_scaling


def test_fig6(benchmark):
    result = run_once(benchmark, fig6_scaling.run)
    for scale in (8, 128):
        for backend, series in result.runtime[scale].items():
            assert series == sorted(series), (scale, backend)
    for i, size in enumerate(result.sizes_mb):
        # redis slowest everywhere; filesystem the overall pattern-2 winner.
        assert result.runtime[128]["redis"][i] >= result.runtime[128]["dragon"][i]
        assert result.runtime[128]["filesystem"][i] <= result.runtime[128]["dragon"][i]
        if size < 10:
            assert (
                result.runtime[128]["dragon"][i]
                > 1.5 * result.runtime[128]["filesystem"][i]
            )
    print()
    print(result.render())
