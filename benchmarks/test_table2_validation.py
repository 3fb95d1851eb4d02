"""Benchmark: Table 2 — event-count fidelity, original vs mini-app."""

from conftest import run_once
from repro.experiments import table2_validation


def test_table2(benchmark):
    result = run_once(benchmark, table2_validation.run)
    assert result.train.original_timesteps == result.train.miniapp_timesteps
    assert result.sim.timestep_relative_error < 0.06
    assert result.sim.transport_relative_error <= 0.15
    print()
    print(result.render())
