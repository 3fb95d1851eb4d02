"""The chaos-sweep extension experiment: determinism and coverage."""

import pytest

from repro.experiments import ext_faults
from repro.faults import FaultKind
from repro.telemetry import Telemetry


@pytest.fixture(scope="module")
def sweep():
    return ext_faults.run(rates=[0.1], seed=0)


def test_sweep_covers_patterns_and_backends(sweep):
    combos = {(c.pattern, c.backend) for c in sweep.cells}
    assert combos == {(p, b) for p in (1, 2) for b in ("redis", "dragon")}


def test_sweep_is_deterministic(sweep):
    again = ext_faults.run(rates=[0.1], seed=0)
    assert [vars(c) for c in again.cells] == [vars(c) for c in sweep.cells]


def test_every_cell_injects_anchor_crashes():
    # The plan itself guarantees the two scheduled anchors for any cell.
    for pattern in (1, 2):
        kinds = {f.kind for f in ext_faults.chaos_plan(0.1, 30.0, pattern).materialize()}
        assert {FaultKind.BACKEND_CRASH, FaultKind.NODE_CRASH} <= kinds


def test_cells_report_recovery_metrics(sweep):
    for cell in sweep.cells:
        assert cell.faults_injected >= 2
        assert cell.recoveries > 0 or cell.mean_recovery_seconds > 0
        assert cell.max_recovery_seconds >= cell.mean_recovery_seconds >= 0
        assert 0.0 <= cell.goodput_degradation <= 1.0


def test_faults_hurt_goodput(sweep):
    # At least some cells must show a measurable degradation: crashes
    # stall producers and the collective read path.
    assert any(c.goodput_degradation > 0.01 for c in sweep.cells)


def test_telemetry_captures_fault_instants():
    telemetry = Telemetry()
    ext_faults.run(rates=[0.1], seed=0, telemetry=telemetry)
    names = {e.name for e in telemetry.tracer.instants}
    assert "fault.inject" in names and "fault.recover" in names


def test_render_mentions_every_backend(sweep):
    text = sweep.render()
    assert "redis" in text and "dragon" in text
    assert "goodput loss" in text
