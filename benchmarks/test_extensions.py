"""Benchmarks: extension experiments (inference latency, future-work
backends) — the studies beyond the paper's artifacts."""

from conftest import run_once
from repro.experiments import ext_futurework, ext_inference


def test_ext_inference(benchmark):
    result = run_once(benchmark, ext_inference.run)
    # Latency ordering: in-memory/streaming beat the filesystem by a lot.
    assert result.rows["filesystem"][0] > 3 * result.rows["dragon"][0]
    assert result.rows["filesystem"][1] > result.rows["dragon"][1]  # transport share
    print()
    print(result.render())


def test_ext_futurework(benchmark):
    result = run_once(benchmark, ext_futurework.run)
    # DAOS avoids the Lustre metadata collapse at 512 nodes...
    for i in range(len(result.sizes_mb)):
        assert result.p1_write_512["daos"][i] > result.p1_write_512["filesystem"][i]
    # ...and wins the many-to-one pattern at 128 nodes.
    for i in range(len(result.sizes_mb)):
        assert (
            result.p2_runtime_128["daos"][i] <= result.p2_runtime_128["filesystem"][i]
        )
    print()
    print(result.render())
