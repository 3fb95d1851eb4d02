"""Shared infrastructure for the per-table/figure experiment drivers.

Every driver follows one contract: a ``run()`` function returning a
result dataclass with (a) the measured series and (b) a ``render()``
method printing the same rows/series the paper reports. There is one
scale — the iteration counts ``experiments_full_output.txt`` was printed
at; a test that wants a shorter run calls the driver's module-level
``sweep_point(..., iterations=N)`` instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.stats import mean_throughput, mean_transport_time
from repro.transport.models import (
    MB,
    BackendModel,
    TransportOpContext,
    aurora_backend_models,
)
from repro.workloads.patterns import OneToOneConfig, run_one_to_one

#: The paper's message-size sweep: 0.4 MB to 32 MB (§4.1.2).
SIZE_SWEEP_BYTES = [0.4 * MB, 1 * MB, 2 * MB, 4 * MB, 8 * MB, 16 * MB, 32 * MB]
SIZE_SWEEP_MB = [s / MB for s in SIZE_SWEEP_BYTES]

#: Backends in the paper's plotting order.
PATTERN1_BACKENDS = ["node-local", "dragon", "redis", "filesystem"]
PATTERN2_BACKENDS = ["redis", "dragon", "filesystem"]  # node-local impossible (§4.2)

PROCESSES_PER_NODE = 12  # 6 simulation + 6 AI ranks


def pattern1_context(n_nodes: int) -> TransportOpContext:
    """Scale context for the co-located one-to-one pattern."""
    return TransportOpContext(
        local=True,
        clients_per_server=PROCESSES_PER_NODE,
        concurrent_clients=n_nodes * PROCESSES_PER_NODE,
    )


def pattern2_contexts(n_nodes: int) -> tuple[TransportOpContext, TransportOpContext]:
    """``(write_ctx, read_ctx)`` for the many-to-one pattern on ``n_nodes``.

    Each pattern-2 component stages ONE array per interval (§4.2), so the
    staging-client population is one writer per simulation node (one node
    is the trainer's) plus the trainer's reader lanes — unlike pattern 1,
    where every rank stages its own data.
    """
    n_sims = n_nodes - 1
    n_clients = n_sims + min(12, n_sims)
    write_ctx = TransportOpContext(
        local=True, clients_per_server=12, concurrent_clients=n_clients
    )
    read_ctx = TransportOpContext(
        local=False,
        clients_per_server=12,
        fan_in=n_sims,
        concurrent_peers=min(12, n_sims),
        concurrent_clients=n_clients,
    )
    return write_ctx, read_ctx


def backend_models() -> dict[str, BackendModel]:
    return aurora_backend_models(processes_per_node=PROCESSES_PER_NODE)


@dataclass(frozen=True)
class TransportMeasurement:
    """Per-process transport statistics from one pattern run."""

    read_throughput: float  # bytes/s, averaged over events (paper's metric)
    write_throughput: float
    read_time: float  # mean seconds per message
    write_time: float
    sim_iter_time: float
    ai_iter_time: float


def measure_one_to_one(
    model: BackendModel,
    nbytes: float,
    n_nodes: int,
    train_iterations: int = 2500,
    seed: int = 0,
    telemetry=None,
) -> TransportMeasurement:
    """Run pattern 1 with one backend/size/scale; extract Fig 3/4 metrics.

    ``telemetry`` (a :class:`~repro.telemetry.hub.Telemetry`) records the
    run's spans/metrics — see the "Observability" section of the README.
    """
    config = OneToOneConfig(
        train_iterations=train_iterations,
        snapshot_nbytes=nbytes,
        ranks_per_component=6,
        seed=seed,
    )
    result = run_one_to_one(
        model, config, ctx=pattern1_context(n_nodes), telemetry=telemetry
    )
    return measurement_from_log(result.log)


def sweep_values(
    func: Callable,
    cells: Iterable[Mapping[str, Any]],
    *,
    sweep=None,
    telemetry=None,
    telemetry_points: Optional[Sequence[bool]] = None,
) -> list[Any]:
    """Run a driver's grid through the sweep engine; values in cell order.

    ``sweep`` is a :class:`~repro.sweep.engine.SweepOptions` (None = the
    historical serial in-process path, bit-identical to the pre-engine
    drivers). ``func`` must be a module-level function so worker
    processes can import it; when ``telemetry`` is given, it is injected
    into each cell marked by ``telemetry_points`` (default: all).
    """
    from repro.sweep import SweepEngine

    engine = sweep if isinstance(sweep, SweepEngine) else SweepEngine(sweep)
    return engine.map(
        func, cells, telemetry=telemetry, telemetry_points=telemetry_points
    )


def nekrs_validation_point(which: str, iterations: int, seed: int = 0):
    """One §4.1.1 validation run — shared by Table 2, Table 3, and Fig 2.

    ``which`` is ``"original"`` (measured-jitter workflow) or
    ``"miniapp"`` (SimAI-Bench replica). A shared point function means
    the three fidelity artifacts reuse each other's cached runs when the
    sweep cache is enabled.
    """
    from repro.workloads.nekrs import NekrsValidationSetup

    setup = NekrsValidationSetup(train_iterations=iterations, seed=seed)
    if which == "original":
        return setup.run_original()
    if which == "miniapp":
        return setup.run_miniapp()
    raise ValueError(f"unknown validation run {which!r}")


def _mean_iteration_time(log: EventLog, component: str, kind: EventKind) -> float:
    """``iteration_time_summary(...).mean`` without the rest of the Summary."""
    durations = log._values("duration", component=component, kind=kind)
    if not durations.size:
        return 0.0
    return float(durations.mean())


def measurement_from_log(log: EventLog) -> TransportMeasurement:
    return TransportMeasurement(
        read_throughput=mean_throughput(log, EventKind.READ),
        write_throughput=mean_throughput(log, EventKind.WRITE),
        read_time=mean_transport_time(log, EventKind.READ),
        write_time=mean_transport_time(log, EventKind.WRITE),
        sim_iter_time=_mean_iteration_time(log, "sim", EventKind.COMPUTE),
        ai_iter_time=_mean_iteration_time(log, "train", EventKind.TRAIN),
    )
