"""Benchmark: Fig 4 — compute vs transport time per message."""

from conftest import run_once
from repro.experiments import fig4_overhead


def test_fig4(benchmark):
    result = run_once(benchmark, fig4_overhead.run)
    # node-local: 32 MB transfer ~ one sim iteration at both scales.
    for scale in (8, 512):
        assert 0.3 <= result.panel("node-local", scale).transfer_to_iter_ratio(-1) <= 3.0
    # filesystem: ~1 iteration at 8 nodes, ~an order of magnitude at 512.
    assert 0.3 <= result.panel("filesystem", 8).transfer_to_iter_ratio(-1) <= 3.0
    assert result.panel("filesystem", 512).transfer_to_iter_ratio(-1) >= 5.0
    print()
    print(result.render())
