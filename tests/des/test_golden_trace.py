"""Golden event-trace parity: the perf work must not move a single event.

The digests in ``golden/trace_digests.json`` were recorded on the engine
*before* the O(1) hot-path rewrite (deque queues, tombstones, inlined
loop, model caching). Each test replays the same workload on the current
engine and compares the SHA-256 of the full schedule/step stream — any
reordering, extra event, or missing event fails loudly.
"""

from __future__ import annotations

import json

import pytest

from repro.des import CORES, set_default_core
from tests.des.goldens import GOLDEN_PATH, RECORDERS, rewritten


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())["digests"]


@pytest.fixture(params=sorted(CORES))
def core(request):
    """Run the golden workloads under every event core."""
    set_default_core(request.param)
    try:
        yield request.param
    finally:
        set_default_core(None)


@pytest.mark.parametrize("name", sorted(RECORDERS))
def test_trace_matches_pre_optimization_golden(name, core):
    golden = _golden()
    assert name in golden, (
        f"no golden digest for {name!r}; regenerate with "
        f"`PYTHONPATH=src python tests/des/goldens.py --write {name}`"
    )
    current = RECORDERS[name]()
    assert current == golden[name], (
        f"event trace for {name!r} on the {core!r} core diverged from the "
        f"pre-optimization golden ({current['schedules']} schedules / "
        f"{current['steps']} steps vs {golden[name]['schedules']} / "
        f"{golden[name]['steps']}); the engine is no longer bit-identical"
    )


def test_write_re_records_the_named_entries_and_refuses_to_touch_another():
    golden = _golden()
    moved = {"schedules": 1, "sha256": "0" * 64, "steps": 1}
    current = {**golden, "pattern1_lockstep": moved}
    assert rewritten(golden, current, ["pattern1_lockstep"]) == current
    assert rewritten(golden, current, ["pattern1_lockstep", "pattern2"]) == current
    with pytest.raises(SystemExit, match="pattern2 moved too and was not named"):
        rewritten(golden, {**current, "pattern2": moved}, ["pattern1_lockstep"])
    with pytest.raises(SystemExit, match="no such golden: pattern9"):
        rewritten(golden, current, ["pattern9"])
