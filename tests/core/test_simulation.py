"""Tests for the Simulation component."""

import numpy as np
import pytest

from repro.config import SimulationConfig
from repro.core import Simulation
from repro.errors import ConfigError, WorkflowError
from repro.telemetry import EventKind, VirtualClock
from repro.transport import ServerManager

LISTING2 = {
    "kernels": [
        {
            "name": "nekrs_iter",
            "run_time": 0.005,
            "data_size": [64, 64],
            "mini_app_kernel": "MatMulSimple2D",
            "device": "xpu",
        }
    ]
}


def test_simulation_from_listing2_config():
    sim = Simulation("sim", config=LISTING2)
    assert len(sim.kernels) == 1
    assert sim.kernels[0].mini_app_kernel == "MatMulSimple2D"


def test_simulation_records_init_event():
    sim = Simulation("sim", config=LISTING2)
    init_events = sim.event_log.filter(kind=EventKind.INIT)
    assert len(init_events) == 1
    assert init_events[0].component == "sim"


def test_run_iteration_records_compute_event():
    sim = Simulation("sim", config=LISTING2)
    duration = sim.run_iteration()
    events = sim.event_log.filter(kind=EventKind.COMPUTE)
    assert len(events) == 1
    assert events[0].duration == pytest.approx(duration)
    assert sim.iterations_run == 1


def test_run_time_paces_iterations():
    sim = Simulation("sim", config=LISTING2)
    duration = sim.run_iteration()
    # MatMul of 64x64 is fast; the executor pads to ~5 ms.
    assert 0.004 <= duration <= 0.05


def test_run_n_iterations():
    sim = Simulation("sim", config={"kernels": [
        {"mini_app_kernel": "AXPY", "data_size": [128], "run_count": 1}
    ]})
    sim.run(5)
    assert sim.iterations_run == 5
    assert len(sim.event_log.filter(kind=EventKind.COMPUTE)) == 5


def test_run_uses_config_iterations():
    cfg = SimulationConfig.from_dict(
        {"kernels": [{"mini_app_kernel": "AXPY", "data_size": [16]}], "iterations": 3}
    )
    sim = Simulation("sim", config=cfg)
    sim.run()
    assert sim.iterations_run == 3


def test_run_negative_iterations():
    sim = Simulation("sim")
    with pytest.raises(ConfigError):
        sim.run(-1)


def test_add_kernel_by_name():
    sim = Simulation("sim")
    sim.add_kernel("MatMulSimple2D", data_size=(16, 16))
    sim.add_kernel("AXPY", data_size=(64,))
    assert [k.mini_app_kernel for k in sim.kernels] == ["MatMulSimple2D", "AXPY"]
    sim.run_iteration()


def test_add_kernel_config_with_overrides_rejected():
    from repro.config import KernelConfig

    sim = Simulation("sim")
    with pytest.raises(ConfigError):
        sim.add_kernel(KernelConfig(mini_app_kernel="AXPY"), data_size=(4,))


def test_stage_api_requires_server_info():
    sim = Simulation("sim")
    with pytest.raises(WorkflowError):
        sim.stage_write("k", 1)


def test_simulation_with_datastore(tmp_path):
    with ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)}) as m:
        sim = Simulation("sim", config=LISTING2, server_info=m.get_server_info())
        sim.stage_write("key1", np.ones(32))
        assert sim.poll_staged_data("key1")
        np.testing.assert_array_equal(sim.stage_read("key1"), np.ones(32))
        # transport events flow into the component log
        assert len(sim.event_log.filter(kind=EventKind.WRITE)) == 1
        assert len(sim.event_log.filter(kind=EventKind.READ)) == 1
        sim.teardown()


def test_virtual_clock_runs_instantly():
    clock = VirtualClock(auto_advance=1e-4)
    sim = Simulation("sim", config=LISTING2, clock=clock)
    import time

    t0 = time.perf_counter()
    sim.run(100)
    wall = time.perf_counter() - t0
    assert wall < 5.0  # no real 0.5 s of sleeping
    compute = sim.event_log.filter(kind=EventKind.COMPUTE)
    assert np.mean([e.duration for e in compute]) == pytest.approx(0.005, rel=0.2)


def test_iteration_time_std_is_tiny_with_fixed_run_time():
    """Table 3: the mini-app strictly maintains the configured time."""
    clock = VirtualClock(auto_advance=1e-4)
    sim = Simulation("sim", config=LISTING2, clock=clock)
    sim.run(50)
    durations = sim.event_log.filter(kind=EventKind.COMPUTE).durations()
    assert float(np.std(durations)) < 0.1 * float(np.mean(durations))


def test_stochastic_run_time_sampled():
    clock = VirtualClock(auto_advance=1e-4)
    cfg = {
        "kernels": [
            {
                "mini_app_kernel": "AXPY",
                "data_size": [64],
                "run_time": {"dist": "discrete", "values": [0.002, 0.02]},
            }
        ]
    }
    sim = Simulation("sim", config=cfg, clock=clock)
    sim.run(40)
    durations = sim.event_log.filter(kind=EventKind.COMPUTE).durations()
    short = sum(1 for d in durations if d < 0.01)
    assert 0 < short < 40  # both modes sampled


def test_empty_name_rejected():
    with pytest.raises(WorkflowError):
        Simulation("")


def test_component_rank_without_comm():
    """A simulation is one rank: its init and compute records are rank 0."""
    sim = Simulation("sim", config=LISTING2)
    sim.run_iteration()
    assert {record.rank for record in sim.event_log} == {0}
