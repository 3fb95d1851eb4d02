"""The two simulated workloads: ``p2_incast_128`` and ``p1_sweep_parallel``.

Both drive the DES and pattern layers through the experiment drivers'
own ``sweep_point`` functions; they differ in how those layers are used
(one long blocking incast run per cell vs many short async runs) and in
whether the sweep engine and its cache do any work.
"""

from __future__ import annotations

import contextlib
import hashlib
import shutil
import time
from dataclasses import dataclass

import numpy as np

from e2elib import profiling, simlayers, stats
from e2elib.harness import Workload
from e2elib.speed import Samples
from e2elib.spans import durations
from repro.experiments import common as exp_common
from repro.experiments import fig3_throughput, fig6_scaling
from repro.experiments.common import PATTERN1_BACKENDS, PATTERN2_BACKENDS
from repro.sweep import ResultCache, SweepEngine, SweepOptions
from repro.sweep.point import SweepPoint, points_from_grid

#: Warm replays (~2 ms each) per speed segment.
REPLAYS_PER_SEGMENT = 20
N_SIZES = len(exp_common.SIZE_SWEEP_BYTES)
#: Index of the nominal 1 MB size in the sweep (digest cells, cell_ms rows).
ONE_MB = 1
#: Index of the nominal 4 MB size (the profiled representative cells).
FOUR_MB = 3


@dataclass(frozen=True)
class SimScale:
    iterations: int
    replays: int = 0  # warm cache replays per round (p1 only)
    des_events: int = 65536  # events per DES micro-timing run
    micro_n: int = 20000  # calls per function-level micro-timing
    noop_cells: int = 200  # cells of the no-op grid (engine overhead)
    micro_repeats: int = 3  # timed runs behind each DES micro-timing's median
    setup_repeats: int = 5
    min_rounds: int = 3
    traced_rounds: int = 1
    traced_compare_rounds: int = 2


def values_digest(values) -> str:
    return hashlib.sha256(repr(values).encode("utf-8")).hexdigest()


class _SimWorkload(Workload):
    """Shared: seeded grid, serial reference cells, one digest cell."""

    driver = None  # module with sweep_point
    runner_module = None  # module whose global names the pattern runner
    runner_attr = ""
    digest_cell = ""  # human name of the digest cell
    stream = 0  # rng stream, so the workloads draw different sizes

    def __init__(self, ctx, workdir) -> None:
        super().__init__(ctx, workdir)
        self.scale: SimScale = self.SMOKE if ctx.smoke else self.FULL
        self.counts = simlayers.SimCounts()
        self.first_values = None
        self.cell_id = None

    # -- set-up ------------------------------------------------------------
    def _cells(self, sizes: list[float]) -> list[dict]:
        raise NotImplementedError

    def _reference_cells(self) -> list[int]:
        """Cells recomputed serially in set-up; every timed round must
        match them. The same positions for every seed (the seed moves
        their sizes): a redis cell of Pattern 2 costs four times a
        filesystem cell, so a seeded draw of positions made ``setup_s``
        move by 30 % with the seed."""
        raise NotImplementedError

    def _digest_index(self) -> int:
        raise NotImplementedError

    def setup(self) -> None:
        rng = np.random.default_rng([self.ctx.seed, self.stream])
        self.cells = self._cells(simlayers.seeded_sizes(rng))
        self.sampled = self._reference_cells()
        point = self.driver.sweep_point
        self.reference = {}
        for i in self.sampled:
            self.reference[i] = point(**self.cells[i])
            self.lap()
        sink: list = []
        with simlayers.wrapped(
            self.runner_module, self.runner_attr, simlayers.capturing_runner(sink)
        ):
            point(**self.cells[self._digest_index()])
        self.digest = simlayers.log_digest(sink[0].log)

    # -- per-round checks --------------------------------------------------
    def _check_round(self, index: int, values: list) -> None:
        for i in self.sampled:
            self.tally.check(
                values[i] == self.reference[i],
                f"{self.name}: round {index} cell {i} differs from its serial reference",
            )
        if self.first_values is None:
            self.first_values = values
        else:
            self.tally.check(
                values == self.first_values,
                f"{self.name}: round {index} differs from round 0",
            )

    def _instrumented(self):
        """Span + counting hub around the pattern runner, traced rounds only."""
        if not self.ctx.rec.enabled:
            return contextlib.nullcontext()
        return simlayers.wrapped(
            self.runner_module,
            self.runner_attr,
            simlayers.counting_runner(
                self.ctx.rec, self.counts, self.runner_attr, lambda: self.cell_id
            ),
        )

    def _serial_pass(self, tag: str, seconds: Samples) -> list:
        """Every cell in-process, in order; appends each cell's time to
        ``seconds`` (one speed segment per cell) and returns the values."""
        values = []
        rec = self.ctx.rec
        for i, cell in enumerate(self.cells):
            self.cell_id = f"{tag}/c{i}"
            start = time.perf_counter()
            with rec.span("sweep_point", id=self.cell_id):
                values.append(self.driver.sweep_point(**cell))
            seconds.append(time.perf_counter() - start)
            self.lap()
        return values

    # -- final checks ------------------------------------------------------
    def _flat(self, values) -> list[float]:
        raise NotImplementedError

    def finish(self) -> None:
        expected = self.ctx.expected
        if expected is None:
            return
        self.tally.check(
            expected.get("iterations") == self.scale.iterations,
            f"{self.name}: expected.json was written for another iteration count",
        )
        self.tally.check(
            self._flat(self.first_values) == expected.get("values"),
            f"{self.name}: simulated statistics differ from expected.json",
        )
        self.tally.check(
            self.digest == expected.get("eventlog_sha256"),
            f"{self.name}: EventLog digest of {self.digest_cell} differs from expected.json",
        )

    def expected_block(self) -> dict:
        """What ``--write-expected`` stores for this workload (seed 0)."""
        return {
            "iterations": self.scale.iterations,
            "values": self._flat(self.first_values),
            "digest_cell": self.digest_cell,
            "eventlog_sha256": self.digest,
        }

    def exact_counts(self) -> dict:
        out = {
            "values_sha256": values_digest(self._flat(self.first_values)),
            "eventlog_sha256": self.digest,
        }
        if self.counts.runs:
            out.update(self.counts.as_dict())
        return out

    # -- per-layer rows shared by both simulated workloads ------------------
    def _sim_layers(self, untraced_wall: float, profiled_cells: list[dict]) -> dict:
        """This workload's own counts and cProfile shares."""
        point = self.driver.sweep_point
        rows: dict[str, float] = dict(self.counts.as_dict())
        rows["des.host_us_per_event"] = 1e6 * untraced_wall / self.counts.events_processed
        shares = profiling.self_shares(
            [lambda cell=cell: point(**cell) for cell in profiled_cells]
        )
        rows.update({f"{layer}.self_share": share for layer, share in shares.items()})
        return rows


class P2Incast(_SimWorkload):
    """Pattern 2 (many-to-one), the Fig 6(b) row, cell by cell, serial."""

    name = "p2_incast_128"
    driver = fig6_scaling
    runner_module = fig6_scaling
    runner_attr = "run_many_to_one"
    digest_cell = "dragon@1MB@128nodes"
    stream = 2
    NODES = 128
    FULL = SimScale(iterations=20)
    SMOKE = SimScale(
        iterations=2, des_events=2048, micro_n=1000, micro_repeats=1,
        setup_repeats=1, min_rounds=2,
    )

    def _cells(self, sizes):
        return [
            {"backend": b, "scale": self.NODES, "nbytes": s,
             "iterations": self.scale.iterations}
            for b in PATTERN2_BACKENDS
            for s in sizes
        ]

    def _reference_cells(self) -> list[int]:
        # The smallest, the middle and the largest size of every backend.
        return [
            k * N_SIZES + i
            for k in range(len(PATTERN2_BACKENDS))
            for i in (0, N_SIZES // 2, N_SIZES - 1)
        ]

    def _digest_index(self) -> int:
        return PATTERN2_BACKENDS.index("dragon") * N_SIZES + ONE_MB

    def _flat(self, values):
        return list(values)

    def round(self, index: int) -> None:
        with self._instrumented():
            values = self._serial_pass(f"r{index}", self.op_latencies)
        self.tally.ops(len(self.cells))
        self._check_round(index, values)

    def finish(self) -> None:
        if not self.ctx.smoke:  # a smoke run is too short for the shapes to form
            self._check_fig6_shapes()
        super().finish()

    def _check_fig6_shapes(self) -> None:
        """The 128-node assertions of benchmarks/test_fig6_scaling.py."""
        series = {
            b: self.first_values[k * N_SIZES:(k + 1) * N_SIZES]
            for k, b in enumerate(PATTERN2_BACKENDS)
        }
        check = self.tally.check
        for backend, row in series.items():
            check(row == sorted(row), f"fig6: {backend} runtime not monotonic in size")
        for i, nominal in enumerate(exp_common.SIZE_SWEEP_MB):
            check(series["redis"][i] >= series["dragon"][i], f"fig6: redis < dragon at {nominal} MB")
            check(series["filesystem"][i] <= series["dragon"][i],
                  f"fig6: filesystem > dragon at {nominal} MB")
            if nominal < 10:
                check(series["dragon"][i] > 1.5 * series["filesystem"][i],
                      f"fig6: dragon incast penalty missing at {nominal} MB")

    def layers(self, untraced_wall: float) -> dict:
        profiled = [
            self.cells[k * N_SIZES + FOUR_MB] for k in range(len(PATTERN2_BACKENDS))
        ]
        rows = self._sim_layers(untraced_wall, profiled)
        cell = self.cells[self._digest_index()]
        rows["workloads.many_to_one.cell_ms.n127"] = simlayers.cell_ms(
            lambda: fig6_scaling.sweep_point(**cell)
        )
        # The micro-timings of the simulator's layers depend on no
        # workload; they live here, where those layers weigh most.
        rows.update(simlayers.des_micros(self.scale.des_events, self.scale.micro_repeats))
        rows.update(simlayers.telemetry_micros(self.scale.micro_n))
        rows.update(simlayers.simstore_micros(self.scale.micro_n // 4))
        rows.update(simlayers.models_micros(self.scale.micro_n))
        rows.update(simlayers.cluster_micros(self.scale.micro_n, self.ctx.seed))
        return rows


def noop_point(x: float) -> float:
    """The no-op grid cell behind ``sweep.engine.overhead_ms_per_cell``."""
    return x


class P1Sweep(_SimWorkload):
    """Pattern 1 (one-to-one), the Fig 3 grid through the sweep engine:
    a parallel cold pass into an empty cache, then warm replays.

    The cold pass goes through the engine one Fig 3 curve (a (scale,
    backend) row of seven sizes, ~0.3 s on two workers) at a time, into
    one cache: the generator only waits while the pool works, a unit run
    beside the busy workers would measure the contention with them, and
    the whole grid in one call (~2 s) outlasts the host's speed phases,
    so that its raw seconds moved by 16-19 % between runs of one commit.
    """

    name = "p1_sweep_parallel"
    driver = fig3_throughput
    runner_module = exp_common
    runner_attr = "run_one_to_one"
    digest_cell = "dragon@1MB@512nodes"
    stream = 1
    SCALES = (8, 512)
    # One comparison round: the traced pass already runs the grid three
    # more times (traced round, serial pass, counted pass).
    FULL = SimScale(iterations=600, replays=200, traced_compare_rounds=1)
    SMOKE = SimScale(iterations=10, replays=2, noop_cells=10, setup_repeats=1, min_rounds=2)

    def __init__(self, ctx, workdir) -> None:
        super().__init__(ctx, workdir)
        self.parallel = min(ctx.nproc, 2)
        self.curve_s = self.series()  # one engine call of the cold pass each
        self.cold_s: list[float] = []  # per round: the sum over its curves
        self.replay_rates: list[float] = []
        self.hits = self.lookups = self.bytes_written = 0

    def _cells(self, sizes):
        return [
            {"backend": b, "nbytes": s, "scale": n, "iterations": self.scale.iterations}
            for n in self.SCALES
            for b in PATTERN1_BACKENDS
            for s in sizes
        ]

    def _reference_cells(self) -> list[int]:
        # One cell of every (scale, backend) row, walking through the sizes.
        rows = len(self.SCALES) * len(PATTERN1_BACKENDS)
        return [row * N_SIZES + row % N_SIZES for row in range(rows)]

    def _digest_index(self) -> int:
        per_scale = len(PATTERN1_BACKENDS) * N_SIZES  # the 512-node half comes second
        return per_scale + PATTERN1_BACKENDS.index("dragon") * N_SIZES + ONE_MB

    def _flat(self, values):
        return [x for pair in values for x in pair]

    def _options(self, cache_dir) -> SweepOptions:
        return SweepOptions(parallel=self.parallel, cache_dir=cache_dir)

    def setup(self) -> None:
        super().setup()
        self.points = points_from_grid(fig3_throughput.sweep_point, self.cells)
        # Warm the pool path and check parallel == serial on two cells.
        warm = [self.points[i] for i in self.sampled[:2]]
        report = SweepEngine(self._options(self.workdir / "warm")).run(warm)
        self.tally.check(
            report.values == [self.reference[i] for i in self.sampled[:2]],
            f"{self.name}: pool result differs from the serial reference",
        )

    def round(self, index: int) -> None:
        rec = self.ctx.rec
        cache_dir = self.workdir / f"cache{index}"
        options = self._options(cache_dir)
        cold_values: list = []
        for first in range(0, len(self.points), N_SIZES):
            start = time.perf_counter()
            with rec.span("SweepEngine.run.cold", id=f"r{index}/curve{first // N_SIZES}"):
                cold = SweepEngine(options).run(self.points[first:first + N_SIZES])
            self.curve_s.append(time.perf_counter() - start)
            self.lap()
            cold_values += cold.values
        self.cold_s.append(sum(self.curve_s[-(len(self.points) // N_SIZES):]))
        self.tally.ops(len(self.points))
        if rec.enabled:
            self.bytes_written = sum(p.stat().st_size for p in cache_dir.glob("*/*.pkl"))
        for k in range(self.scale.replays):
            start = time.perf_counter()
            with rec.span("SweepEngine.run.replay", id=f"r{index}/replay{k}"):
                warm = SweepEngine(options).run(self.points)
            self.op_latencies.append(time.perf_counter() - start)
            self.hits += warm.cache.hits
            self.lookups += warm.cache.lookups
            self.tally.ops(len(self.points))
            if warm.values != cold_values or warm.cache.hit_rate != 1.0:
                self.tally.fail(f"{self.name}: round {index} replay {k} missed or differs")
            if k % REPLAYS_PER_SEGMENT == REPLAYS_PER_SEGMENT - 1:
                self.lap()
        self.lap()
        replay_s = sum(self.op_latencies[-self.scale.replays:])
        self.replay_rates.append(self.scale.replays * len(self.points) / replay_s)
        self._check_round(index, cold_values)
        shutil.rmtree(cache_dir)

    def exact_counts(self) -> dict:
        out = super().exact_counts()
        out["sweep.cache.hit_ratio"] = self.hits / self.lookups
        return out

    def workload_metrics(self) -> dict:
        return {
            "cache_replay_cells_per_s": {
                "value": stats.median(self.replay_rates), "unit": "cells/s",
                "better": "higher", "samples": self.lookups,
            },
            "cold_pass_s": {
                "value": stats.median(self.cold_s), "unit": "s",
                "better": "lower", "samples": len(self.cold_s),
            },
        }

    def _engine_micros(self) -> dict:
        cells = [{"x": float(i)} for i in range(self.scale.noop_cells)]
        rows = {}
        for label, parallel in (("serial", 1), ("parallel", self.parallel)):
            start = time.perf_counter()
            SweepEngine(SweepOptions(parallel=parallel)).map(noop_point, cells)
            rows[f"sweep.engine.overhead_ms_per_cell.{label}"] = (
                1e3 * (time.perf_counter() - start) / len(cells)
            )
        start = time.perf_counter()
        SweepEngine(SweepOptions(parallel=max(2, self.parallel))).map(noop_point, cells[:2])
        rows["sweep.engine.pool_start_ms"] = 1e3 * (time.perf_counter() - start)
        return rows

    def _cache_micros(self) -> dict:
        cache = ResultCache(self.workdir / "cache-micro")
        points = [
            SweepPoint(func=noop_point, kwargs={"x": float(i)})
            for i in range(self.scale.noop_cells)
        ]
        value = self.first_values[0]
        rows = {}
        start = time.perf_counter()
        keys = [cache.key_for(p) for p in points]
        rows["sweep.cache.key_us"] = 1e6 * (time.perf_counter() - start) / len(points)
        start = time.perf_counter()
        for key in keys:
            cache.store(key, value)
        rows["sweep.cache.put_us"] = 1e6 * (time.perf_counter() - start) / len(points)
        start = time.perf_counter()
        for key in keys:
            cache.lookup(key)
        rows["sweep.cache.get_us"] = 1e6 * (time.perf_counter() - start) / len(points)
        return rows

    def layers(self, untraced_wall: float) -> dict:
        # The pool's workers are out of the harness's reach, so the grid is
        # run twice more in-process: once plain for the cell seconds (the
        # efficiency's numerator, and a serial == parallel check), once
        # under the counting hub for the exact counts.
        values = self._serial_pass("serial", Samples())
        self.tally.check(
            values == self.first_values,
            f"{self.name}: serial pass differs from the parallel cold pass",
        )
        with self._instrumented():
            self._serial_pass("counted", Samples())
        per_scale = len(PATTERN1_BACKENDS) * N_SIZES
        profiled = [
            self.cells[per_scale + k * N_SIZES + FOUR_MB]
            for k in range(1, len(PATTERN1_BACKENDS))
        ]
        rows = self._sim_layers(untraced_wall, profiled)
        cell = self.cells[self._digest_index()]
        rows["workloads.one_to_one.cell_ms.n512"] = simlayers.cell_ms(
            lambda: fig3_throughput.sweep_point(**cell)
        )
        rows.update(self._engine_micros())
        rows.update(self._cache_micros())
        # Raw seconds on both sides; every traced round ran every curve once.
        spans = self.ctx.rec.spans
        rows["sweep.engine.parallel_efficiency"] = sum(
            durations(spans, "sweep_point", where="serial/")
        ) / (self.parallel * sum(durations(spans, "SweepEngine.run.cold"))
             / self.scale.traced_rounds)
        rows["sweep.cache.hit_ratio"] = self.hits / self.lookups
        rows["sweep.cache.bytes_written"] = float(self.bytes_written)
        return rows
