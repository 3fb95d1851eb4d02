"""The measuring loop shared by the four workloads.

One run = one workload in one process. Untraced (end-to-end metrics):
set up ``scale.setup_repeats`` times, keep the last, run fixed-work
rounds until ``--seconds`` have passed, report medians. Traced
(per-layer metrics): set up once, a few untraced rounds for the overhead
ratio, then rounds under a :class:`~e2elib.spans.SpanRecorder` plus the
workload's counts, profiles and micro-timings.

Every end-to-end time is divided by the host's speed at the moment it
was measured (:mod:`e2elib.speed`); the raw seconds are kept beside it.
Per-layer micro-timings are raw: they have no bound to hold.
"""

from __future__ import annotations

import gc
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from e2elib import hostinfo, stats
from e2elib.spans import NullRecorder, SpanRecorder
from e2elib.speed import Samples, SpeedClock

#: Printed beside every table of simulated numbers (hardware-simulation
#: sheet: no reference measurements in the repository, so no error figure).
MODEL_NOTE = (
    "note: the transport models are calibrated to the paper's ratios, not "
    "validated against hardware; simulated statistics are checked for "
    "exact repeatability only and no error figure is given."
)


class Tally:
    """Operations attempted and failed; a failed output check is a failed op."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def ops(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, ok: bool, message: str) -> bool:
        self.attempted += 1
        if not ok:
            self.fail(message)
        return ok


@dataclass
class Context:
    """What a workload needs from the run: inputs' seed, scale, scratch space."""

    root: Path  # checkout root
    workdir: Path  # scratch space inside the checkout, removed at exit
    seed: int
    smoke: bool
    nproc: int
    expected: Optional[dict]  # this workload's block of expected.json (seed 0 only)
    tally: Tally = field(default_factory=Tally)
    rec: Any = field(default_factory=NullRecorder)
    clock: SpeedClock = field(default_factory=SpeedClock)
    #: What must outlive a set-up repeat (each builds a fresh workload).
    carry: dict = field(default_factory=dict)


class Workload:
    """Interface the loop drives; ``*_workload(s).py`` hold the four."""

    name = ""
    #: Which :data:`e2elib.speed.UNITS` entry tracks this workload's bottleneck.
    speed_unit = "interpreter"

    def __init__(self, ctx: Context, workdir: Path) -> None:
        self.ctx = ctx
        self.workdir = workdir
        self.tally = ctx.tally
        self._series: list[Samples] = []
        #: Latencies (s) of the closed-loop operation behind ``op_ms_p50``.
        self.op_latencies = self.series()

    def series(self) -> Samples:
        """A list of durations that :meth:`lap` scales to the reference speed."""
        samples = Samples()
        self._series.append(samples)
        return samples

    def lap(self, raw: bool = False) -> float:
        """A segment boundary: call between operations, never inside one."""
        factor = self.ctx.clock.lap(raw)
        for samples in self._series:
            samples.settle(factor)
        return factor

    def once_per_process(self) -> None:
        """Runs on a throw-away instance before the first set-up and
        outside set-up time; what it learns goes to ``ctx.carry``."""

    # Set-up is everything before the first timed round: input
    # generation, servers/children, reference values, warm-up.
    def setup(self) -> None:
        raise NotImplementedError

    def round(self, index: int) -> None:
        """One fixed-work round; appends to ``op_latencies``, tallies ops."""
        raise NotImplementedError

    def finish(self) -> None:
        """Output checks over all rounds (expected.json, shapes)."""

    def teardown(self) -> None:
        """Stop children/servers; idempotent, never raises on double call."""

    def workload_metrics(self) -> dict[str, dict]:
        """The issue-named metrics native to this workload (untraced)."""
        return {}

    def layers(self, untraced_wall: float) -> dict[str, float]:
        """Per-layer metrics of the layers on this workload's path."""
        raise NotImplementedError

    def exact_counts(self) -> dict[str, Any]:
        """Counts and digests that must repeat exactly run to run."""
        return {}

    def expected_block(self) -> Optional[dict]:
        """Seed-0 outputs worth pinning in expected.json (simulated only)."""
        return None

    def stores(self) -> dict[str, str]:
        """Where this workload's on-disk state lived (environment block)."""
        return {}


def _timed(workload: Workload, call) -> tuple[float, float]:
    """(reference-speed seconds, raw seconds) of ``call()``, calibration excluded."""
    clock = workload.ctx.clock
    clock.reset()
    clock.start()
    call()
    workload.lap()
    return clock.norm_s, clock.raw_s


def _timed_round(workload: Workload, index: int) -> tuple[float, float]:
    gc.collect()  # every round starts from the same collector state
    return _timed(workload, lambda: workload.round(index))


def _fresh(cls, ctx: Context, tag: str) -> Workload:
    workdir = ctx.workdir / tag
    workdir.mkdir(parents=True, exist_ok=True)
    return cls(ctx, workdir)


def _once_per_process(cls, ctx: Context) -> None:
    workload = _fresh(cls, ctx, "once")
    try:
        workload.once_per_process()
    finally:
        workload.teardown()
        shutil.rmtree(workload.workdir, ignore_errors=True)


#: What a fresh interpreter runs to time the imports of one workload the
#: way ``run.py`` times its own: one speed segment around them.
_IMPORT_SCRIPT = """\
import sys
sys.path[:0] = sys.argv[1:3]
from e2elib.speed import SpeedClock
clock = SpeedClock()
clock.start()
import e2elib.harness, {module}
clock.lap()
print(clock.norm_s)
"""


def import_seconds(module: str, root: Path, repeats: int) -> list[float]:
    """Reference-speed seconds of ``repeats`` fresh interpreters importing
    the harness, ``module`` and with it the program: set-up is repeated,
    and imports only repeat in a new process."""
    command = [sys.executable, "-c", _IMPORT_SCRIPT.format(module=module),
               str(root / "src"), str(Path(__file__).resolve().parents[1])]
    return [
        float(subprocess.run(command, capture_output=True, text=True, check=True,
                             timeout=120).stdout)
        for _ in range(repeats)
    ]


def run_untraced(cls, ctx: Context, scale, seconds: float, import_s: float) -> dict:
    """``import_s``: this process from its start to imports done, at the
    reference speed; ``scale.setup_repeats - 1`` fresh interpreters add
    their samples to it."""
    _once_per_process(cls, ctx)
    setups: list[tuple[float, float]] = []
    workload = None
    for i in range(scale.setup_repeats):
        if workload is not None:
            workload.teardown()
            shutil.rmtree(workload.workdir, ignore_errors=True)
        workload = _fresh(cls, ctx, f"setup{i}")
        try:
            setups.append(_timed(workload, workload.setup))
        except BaseException:
            workload.teardown()
            raise
    rounds: list[tuple[float, float]] = []
    try:
        began = time.perf_counter()
        while len(rounds) < scale.min_rounds or time.perf_counter() - began < seconds:
            rounds.append(_timed_round(workload, len(rounds)))
        workload.finish()
        extra = workload.workload_metrics()
        counts = workload.exact_counts()
        where = workload.stores()
        block = workload.expected_block()
    finally:
        workload.teardown()
    latencies = workload.op_latencies
    walls = [norm for norm, _raw in rounds]
    # After teardown, when the workload's children are reaped, and before
    # the importing interpreters, which are children of the harness alone.
    peak_rss = hostinfo.peak_rss_mib()
    imports = [import_s] + import_seconds(cls.__module__, ctx.root, scale.setup_repeats - 1)
    metrics = {
        "setup_s": stats.median(imports) + stats.median([norm for norm, _raw in setups]),
        "wall_s": stats.median(walls),
        "peak_rss_mb": peak_rss,
        "op_ms_p50": 1e3 * stats.percentile(latencies, 50.0),
    }
    return {
        "metrics": metrics,
        "workload_metrics": extra,
        "samples": {
            "setup_s": len(setups), "wall_s": len(walls), "op_ms_p50": len(latencies),
        },
        "op_ms_p50_supported": stats.supported(len(latencies), 50.0),
        "rounds": len(walls),
        "round_walls_s": walls,
        "round_walls_raw_s": [raw for _norm, raw in rounds],
        "setup_walls_s": [norm for norm, _raw in setups],
        "setup_walls_raw_s": [raw for _norm, raw in setups],
        "import_walls_s": imports,
        "exact_counts": counts,
        "stores": where,
        # Seed-0 simulated statistics, for ``run.py --write-expected``.
        "expected_block": block,
    }


def run_traced(cls, ctx: Context, scale) -> dict:
    """Per-layer pass: fixed work, so its counts repeat exactly.

    ``scale.traced_compare_rounds`` untraced rounds come first; their
    median against the traced rounds' is the tracing overhead (skipped
    at 0 rounds, when another workload only borrows this one's layers).
    """
    _once_per_process(cls, ctx)
    workload = _fresh(cls, ctx, "traced")
    recorder = SpanRecorder()
    try:
        workload.ctx.clock.start()
        workload.setup()
        untraced = [
            _timed_round(workload, i)[0] for i in range(scale.traced_compare_rounds)
        ]
        ctx.rec = recorder
        traced = [
            _timed_round(workload, len(untraced) + i)[0]
            for i in range(scale.traced_rounds)
        ]
        traced_wall = stats.median(traced)
        untraced_wall = stats.median(untraced) if untraced else traced_wall
        # The recorder stays on: some layers record further spans here.
        layers = workload.layers(untraced_wall)
        if untraced:
            layers["bench.trace_overhead_ratio"] = traced_wall / untraced_wall
        workload.finish()
        counts = workload.exact_counts()
        where = workload.stores()
    finally:
        ctx.rec = NullRecorder()
        workload.teardown()
    return {
        "layers": layers,
        "spans": recorder,
        "rounds": len(untraced) + len(traced),
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "exact_counts": counts,
        "stores": where,
    }
