"""Benchmark: Fig 5 — Pattern 2 at two nodes (non-local read, local write)."""

from conftest import run_once
from repro.experiments import fig5_twonode


def test_fig5(benchmark):
    result = run_once(benchmark, fig5_twonode.run)
    # Redis non-local reads far below dragon at every size.
    for i in range(len(result.sizes_mb)):
        assert result.read["redis"][i] < 0.5 * result.read["dragon"][i]
    # Dragon read peaks at an interior size then declines.
    thr = result.read["dragon"]
    peak = max(range(len(thr)), key=lambda i: thr[i])
    assert 0 < peak < len(thr) - 1
    # Filesystem monotonic, comparable to dragon at the largest size.
    assert result.read["filesystem"] == sorted(result.read["filesystem"])
    assert result.read["filesystem"][-1] > 0.5 * result.read["dragon"][-1]
    print()
    print(result.render())
