"""Real-mode pattern runners: actual components, actual byte movement.

These execute the same patterns as :mod:`repro.workloads.patterns` but
with real :class:`~repro.core.Simulation` / :class:`~repro.core.AI`
components on threads and a real data server — what you run on a
workstation to smoke-test a transport deployment before a big job, and
what the examples/integration tests use.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

import numpy as np

from repro.core.ai import AI
from repro.core.simulation import Simulation
from repro.errors import ConfigError, TransportError, WorkflowError
from repro.ml.data import synthetic_snapshot
from repro.telemetry.events import EventLog
from repro.telemetry.hub import Telemetry
from repro.workloads.nekrs import nekrs_ai_config, nekrs_simulation_config


@dataclass
class RealOneToOneConfig:
    """A scaled-down, wall-clock pattern-1 run."""

    train_iterations: int = 50
    write_interval: int = 10
    read_interval: int = 5
    sim_iter_time: float = 0.004
    ai_iter_time: float = 0.006
    snapshot_samples: int = 64
    input_dim: int = 16
    output_dim: int = 8
    sim_config: Optional[dict] = None
    ai_config: Optional[dict] = None
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.train_iterations < 1:
            raise ConfigError("train_iterations must be >= 1")
        if min(self.write_interval, self.read_interval) < 1:
            raise ConfigError("intervals must be >= 1")


@dataclass
class RealRunResult:
    log: EventLog
    snapshots_written: int
    snapshots_read: int
    sim_iterations: int
    final_loss: float
    #: Degradation counters — non-zero only under injected chaos or a
    #: genuinely failing backend (writes lost after retries, snapshots
    #: skipped because their read kept failing).
    snapshots_lost: int = 0
    failed_ingests: int = 0


def run_one_to_one_real(
    server_info: Mapping[str, Any],
    config: Optional[RealOneToOneConfig] = None,
    timeout: float = 120.0,
    telemetry: Optional[Telemetry] = None,
) -> RealRunResult:
    """Run pattern 1 for real against a running data server.

    The simulation thread stages a fresh synthetic (x, y) snapshot every
    ``write_interval`` iterations, and one as it stops if it has staged
    none, so a run always moves data; the AI thread polls every
    ``read_interval`` training iterations, ingests what is new, trains on
    the growing pool, and finally steers the simulation to stop. A
    ``telemetry`` hub gets, at the end, the iteration and transport
    spans and metrics derived from the run's log, and the
    ``resilience.retries`` counters of a ``resilience`` server_info.
    """
    config = config or RealOneToOneConfig()
    log = EventLog()
    log_lock = threading.Lock()
    stop = threading.Event()
    counters = {"written": 0, "read": 0, "sim_iters": 0, "lost": 0, "failed": 0}
    errors: list[BaseException] = []
    stores = []  # each component's DataStore, for its resilience record

    sim_cfg = config.sim_config or nekrs_simulation_config(
        run_time=config.sim_iter_time, data_size=(64, 64), device="cpu"
    )
    ai_cfg = config.ai_config or {
        **nekrs_ai_config(
            run_time=config.ai_iter_time,
            input_dim=config.input_dim,
            output_dim=config.output_dim,
        ),
        "hidden_dims": [32],
    }

    def sim_main() -> None:
        sim = Simulation("sim", config=sim_cfg, server_info=server_info)
        rng = np.random.default_rng(7)
        snapshot = 0

        def stage() -> None:
            nonlocal snapshot
            x, y = synthetic_snapshot(
                config.snapshot_samples,
                config.input_dim,
                config.output_dim,
                rng,
            )
            try:
                sim.stage_write(f"snap{snapshot}", (x, y))
            except TransportError:
                # Degrade, don't crash: the snapshot is lost (the
                # retry budget is already spent), the sim carries on.
                counters["lost"] += 1
            else:
                counters["written"] += 1
            snapshot += 1

        try:
            while not stop.is_set():
                sim.run_iteration()
                counters["sim_iters"] += 1
                if counters["sim_iters"] % config.write_interval == 0:
                    stage()
            if snapshot == 0 and not errors:
                # A trainer that finished before the first write_interval
                # still gets a run that moved data: one snapshot, as it stops.
                stage()
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
            stop.set()
        finally:
            with log_lock:
                log.extend(sim.event_log)
                stores.append(sim.datastore)
            sim.teardown()

    final_loss = [float("nan")]

    def ai_main() -> None:
        ai = AI("train", config=ai_cfg, server_info=server_info)
        next_snapshot = 0
        try:
            for iteration in range(1, config.train_iterations + 1):
                ai.train_iteration()
                if iteration % config.read_interval == 0:
                    while True:
                        try:
                            if not ai.ingest_staged(f"snap{next_snapshot}"):
                                break
                        except TransportError:
                            # Unreadable even after retries: skip it and
                            # train on what did arrive.
                            counters["failed"] += 1
                            next_snapshot += 1
                            continue
                        next_snapshot += 1
                        counters["read"] += 1
            final_loss[0] = ai.last_loss
        except BaseException as exc:  # noqa: BLE001
            errors.append(exc)
        finally:
            stop.set()  # steer the simulation to stop (§4.1)
            with log_lock:
                log.extend(ai.event_log)
                stores.append(ai.datastore)
            ai.close()

    threads = [
        threading.Thread(target=sim_main, name="sim", daemon=True),
        threading.Thread(target=ai_main, name="train", daemon=True),
    ]
    for t in threads:
        t.start()
    try:
        for t in threads:
            t.join(timeout=timeout)
            if t.is_alive():
                stop.set()
                raise WorkflowError(f"{t.name} did not finish within {timeout}s")
    finally:
        if telemetry is not None:
            with log_lock:
                # .get: a server_info without a backend logged no ops, and
                # its TransportError must not turn into a KeyError here.
                telemetry.record_run(
                    log, server_info.get("backend"),
                    resilience=[s.resilience for s in stores if s.resilience is not None],
                    retries_only=True,
                )
    if errors:
        raise errors[0]

    return RealRunResult(
        log=log,
        snapshots_written=counters["written"],
        snapshots_read=counters["read"],
        sim_iterations=counters["sim_iters"],
        final_loss=final_loss[0],
        snapshots_lost=counters["lost"],
        failed_ingests=counters["failed"],
    )
