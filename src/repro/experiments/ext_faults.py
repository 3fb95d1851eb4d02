"""Extension experiment — chaos sweep: transport under injected faults.

Not a paper artifact: the paper benchmarks healthy runs only, but
production coupled workflows lose nodes, links, and datastore servers
mid-run. This driver sweeps a seeded fault intensity against backends
and both workflow patterns, measuring what the healthy-path tables
cannot: recovery latency, retry volume, data loss/staleness, and goodput
degradation versus the healthy baseline.

Every faulty run injects at least one backend crash and one node crash
(scheduled), plus Poisson streams of link degradation, message drops,
and corruption whose rate is the sweep variable. Everything draws from
derived seeds, so the whole sweep is bit-reproducible.

Expected outcome: goodput degrades smoothly with fault rate while the
retry/backoff layer holds recovery latency near the fault durations
themselves; in-memory backends (redis/dragon) recover faster than the
filesystem path because their per-op times keep retry turnaround short.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.report import format_table
from repro.experiments.common import backend_models, pattern1_context
from repro.faults import FaultKind, FaultPlan, FaultSpec, StochasticFaultSpec
from repro.transport.resilience import ResilienceConfig, RetryPolicy
from repro.workloads.patterns import (
    ManyToOneConfig,
    OneToOneConfig,
    run_many_to_one,
    run_one_to_one,
)

#: Faults per simulated second for the sweep's stochastic streams.
DEFAULT_RATES = [0.05, 0.2]
#: Backends exercised by the chaos sweep (one in-memory TCP, one RDMA-like).
CHAOS_BACKENDS = ["redis", "dragon"]


def chaos_plan(
    rate: float, horizon: float, pattern: int, seed: int = 0
) -> FaultPlan:
    """The sweep's fault plan for one (rate, pattern) cell.

    Two scheduled anchor faults — a backend crash and a node crash — land
    in the middle half of the run so every cell exercises outage
    detection and recovery; the stochastic streams scale with ``rate``.
    """
    target = "sim" if pattern == 1 else "sim0"
    faults = [
        FaultSpec(
            kind=FaultKind.BACKEND_CRASH, at=0.30 * horizon, duration=0.04 * horizon
        ),
        FaultSpec(
            kind=FaultKind.NODE_CRASH,
            at=0.55 * horizon,
            duration=0.05 * horizon,
            target=target,
        ),
    ]
    stochastic = [
        StochasticFaultSpec(
            kind=FaultKind.LINK_DEGRADE,
            rate=rate,
            horizon=horizon,
            duration=0.02 * horizon,
            severity=4.0,
        ),
        StochasticFaultSpec(
            kind=FaultKind.MESSAGE_DROP,
            rate=rate,
            horizon=horizon,
            duration=0.02 * horizon,
            severity=0.3,
        ),
        StochasticFaultSpec(
            kind=FaultKind.MESSAGE_CORRUPT,
            rate=rate,
            horizon=horizon,
            duration=0.02 * horizon,
            severity=0.3,
        ),
    ]
    return FaultPlan(faults=faults, stochastic=stochastic, seed=seed)


def chaos_resilience(pattern: int) -> ResilienceConfig:
    """The sweep's client-side policy (tight timeouts so cells stay fast)."""
    return ResilienceConfig(
        policy=RetryPolicy(max_attempts=4, base_delay=0.05, max_delay=1.0, timeout=10.0),
        breaker_threshold=5,
        breaker_reset=0.5,
        staleness_bound=5.0 if pattern == 1 else float("inf"),
        quorum=1.0 if pattern == 1 else 0.75,
    )


@dataclass
class ChaosCell:
    """One (pattern, backend, rate) measurement."""

    pattern: int
    backend: str
    rate: float
    makespan: float
    healthy_makespan: float
    goodput: float  # snapshots ingested per simulated second
    healthy_goodput: float
    faults_injected: int
    retries: int
    giveups: int
    recoveries: int
    mean_recovery_seconds: float
    max_recovery_seconds: float
    data_loss: int  # lost + skipped snapshots (p1) / lost + missed (p2)
    staleness_or_quorum: int  # staleness violations (p1) / quorum misses (p2)

    @property
    def goodput_degradation(self) -> float:
        """Fraction of healthy goodput lost to the faults (0 = unhurt)."""
        if self.healthy_goodput <= 0:
            return 0.0
        return max(0.0, 1.0 - self.goodput / self.healthy_goodput)


@dataclass
class FaultsExtResult:
    cells: list[ChaosCell] = field(default_factory=list)
    #: (pattern, backend) -> healthy (makespan, goodput)
    baselines: dict = field(default_factory=dict)

    def render(self) -> str:
        rows = [
            (
                f"p{c.pattern}",
                c.backend,
                c.rate,
                c.faults_injected,
                c.retries,
                c.recoveries,
                c.mean_recovery_seconds,
                c.data_loss,
                c.staleness_or_quorum,
                c.goodput_degradation * 100.0,
            )
            for c in self.cells
        ]
        return format_table(
            [
                "pattern",
                "backend",
                "fault rate (/s)",
                "faults",
                "retries",
                "recoveries",
                "mean recovery (s)",
                "data loss",
                "stale/quorum",
                "goodput loss (%)",
            ],
            rows,
            title="Extension: chaos sweep (fault rate x backend x pattern)",
        )


def _p1_config(seed: int) -> OneToOneConfig:
    return OneToOneConfig(train_iterations=1000, seed=seed)


def _p2_config(seed: int) -> ManyToOneConfig:
    return ManyToOneConfig(
        train_iterations=600,
        n_simulations=4,
        poll_timeout=2.0,
        seed=seed,
    )


def baseline_point(pattern: int, backend: str, seed: int) -> tuple[float, float]:
    """Healthy (makespan, goodput) for one pattern x backend pair."""
    model = backend_models()[backend]
    if pattern == 1:
        healthy = run_one_to_one(model, _p1_config(seed), ctx=pattern1_context(8))
    else:
        healthy = run_many_to_one(model, _p2_config(seed))
    return healthy.makespan, healthy.snapshots_read / healthy.makespan


def cell_point(
    pattern: int,
    backend: str,
    rate: float,
    horizon: float,
    seed: int,
    telemetry=None,
) -> dict:
    """One faulty (pattern, backend, rate) cell against a known horizon.

    ``horizon`` is the healthy run's makespan (stage-1 baseline), which
    anchors the plan's scheduled crashes in the middle half of the run.
    """
    model = backend_models()[backend]
    plan = chaos_plan(rate, horizon=horizon, pattern=pattern, seed=seed)
    resilience = chaos_resilience(pattern)
    if pattern == 1:
        faulty = run_one_to_one(
            model,
            _p1_config(seed),
            ctx=pattern1_context(8),
            telemetry=telemetry,
            fault_plan=plan,
            resilience=resilience,
        )
        loss = (
            faulty.resilience["lost_snapshots"]
            + faulty.resilience["skipped_snapshots"]
        )
        stale = faulty.resilience["staleness_violations"]
    else:
        faulty = run_many_to_one(
            model,
            _p2_config(seed),
            telemetry=telemetry,
            fault_plan=plan,
            resilience=resilience,
        )
        loss = (
            faulty.resilience["lost_snapshots"]
            + faulty.resilience["missed_reads"]
        )
        stale = faulty.resilience["quorum_misses"]
    stats = faulty.resilience["stats"]
    faults = faulty.resilience["faults"]
    return {
        "makespan": faulty.makespan,
        "goodput": faulty.snapshots_read / faulty.makespan,
        "faults_injected": faults["injected"],
        "retries": stats["retries"],
        "giveups": stats["giveups"],
        "recoveries": stats["recoveries"],
        "mean_recovery_seconds": max(
            stats["mean_recovery_seconds"], faults["mean_recovery_seconds"]
        ),
        "max_recovery_seconds": max(
            stats["max_recovery_seconds"], faults["max_recovery_seconds"]
        ),
        "data_loss": loss,
        "staleness_or_quorum": stale,
    }


def run(
    rates: Optional[list[float]] = None,
    seed: int = 0,
    telemetry=None,
    sweep=None,
) -> FaultsExtResult:
    """Run the chaos sweep; fully deterministic for a fixed ``seed``.

    ``telemetry`` (a :class:`~repro.telemetry.hub.Telemetry`) is attached
    to the *last* faulty cell only — one run per trace keeps the Chrome
    timeline readable. When that run ends, its fault injections become
    ``fault.inject`` / ``fault.recover`` instants and its retries
    ``transport.retry`` instants, derived from the injector's and the
    retry wrappers' records.

    The sweep runs in two engine stages because the fault plans are
    anchored to each healthy makespan: stage 1 computes the baselines,
    stage 2 sweeps the faulty cells with those makespans as horizons.
    """
    from repro.experiments.common import sweep_values

    rates = rates if rates is not None else DEFAULT_RATES
    result = FaultsExtResult()

    combos = [(pattern, backend) for pattern in (1, 2) for backend in CHAOS_BACKENDS]
    base_cells = [
        {"pattern": pattern, "backend": backend, "seed": seed}
        for pattern, backend in combos
    ]
    baselines = sweep_values(baseline_point, base_cells, sweep=sweep)
    for (pattern, backend), (makespan, goodput) in zip(combos, baselines):
        result.baselines[(pattern, backend)] = (makespan, goodput)

    cells = [
        {
            "pattern": pattern,
            "backend": backend,
            "rate": rate,
            "horizon": result.baselines[(pattern, backend)][0],
            "seed": seed,
        }
        for pattern, backend in combos
        for rate in rates
    ]
    flags = [False] * len(cells)
    if flags:
        flags[-1] = True  # trace only the last cell (one run per trace)
    values = sweep_values(
        cell_point, cells, sweep=sweep, telemetry=telemetry, telemetry_points=flags
    )
    for cell, data in zip(cells, values):
        h_makespan, h_goodput = result.baselines[(cell["pattern"], cell["backend"])]
        result.cells.append(
            ChaosCell(
                pattern=cell["pattern"],
                backend=cell["backend"],
                rate=cell["rate"],
                healthy_makespan=h_makespan,
                healthy_goodput=h_goodput,
                **data,
            )
        )
    return result


if __name__ == "__main__":
    print(run().render())
