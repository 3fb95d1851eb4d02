"""Benchmark: Fig 3 — Pattern 1 throughput vs size at 8 and 512 nodes."""

from conftest import run_once
from repro.experiments import fig3_throughput


def test_fig3(benchmark):
    result = run_once(benchmark, fig3_throughput.run)
    # In-memory backends: interior throughput peak (cache-spill dip).
    for backend in ("node-local", "dragon", "redis"):
        thr = result.write[8][backend]
        peak = max(range(len(thr)), key=lambda i: thr[i])
        assert 0 < peak < len(thr) - 1, backend
    # Filesystem: monotonic at both scales, collapsed at 512 nodes.
    for scale in (8, 512):
        assert result.write[scale]["filesystem"] == sorted(
            result.write[scale]["filesystem"]
        )
    for i in range(len(result.sizes_mb)):
        assert (
            result.write[512]["filesystem"][i] < 0.25 * result.write[8]["filesystem"][i]
        )
    print()
    print(result.render())
