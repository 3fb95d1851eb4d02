"""Regression tests: every driver renders bit-identically through the engine.

The sweep engine's core promise is that execution strategy (serial,
process pool, cache) never changes what an experiment produces. Each
test renders a driver through the ``parallel=4`` pool and requires byte
equality with the serial path (the session's shared ``driver_result``). The cache test
additionally requires the warm re-run to be served from disk and to be
far faster than the cold run.
"""

import time

import pytest

from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS
from repro.sweep import SweepOptions

REGISTRY = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}

#: The cache tests run one backend's 14 Fig 3 cells; whole-grid parity is
#: the parametrized test's job.
ONE_BACKEND = ["node-local"]


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_driver_parallel_render_is_bit_identical(name, driver_result):
    pooled = REGISTRY[name].run(sweep=SweepOptions(parallel=4)).render()
    assert pooled == driver_result(name).render()


def test_fig3_warm_cache_rerun_is_served_and_fast(tmp_path):
    from repro.experiments import fig3_throughput

    t0 = time.perf_counter()
    cold = fig3_throughput.run(
        backends=ONE_BACKEND, sweep=SweepOptions(cache_dir=tmp_path)
    )
    cold_elapsed = time.perf_counter() - t0

    progress = []
    options = SweepOptions(
        cache_dir=tmp_path,
        progress=lambda done, total, label, source: progress.append(source),
    )
    t0 = time.perf_counter()
    warm = fig3_throughput.run(backends=ONE_BACKEND, sweep=options)
    warm_elapsed = time.perf_counter() - t0

    assert warm.render() == cold.render()
    assert set(progress) == {"cache"}  # nothing recomputed
    assert cold_elapsed >= 5.0 * warm_elapsed


def test_fig3_cache_render_matches_serial(tmp_path):
    from repro.experiments import fig3_throughput

    serial = fig3_throughput.run(backends=ONE_BACKEND).render()
    cached = fig3_throughput.run(
        backends=ONE_BACKEND, sweep=SweepOptions(parallel=2, cache_dir=tmp_path)
    ).render()
    rerun = fig3_throughput.run(
        backends=ONE_BACKEND, sweep=SweepOptions(cache_dir=tmp_path)
    ).render()
    assert cached == serial
    assert rerun == serial
