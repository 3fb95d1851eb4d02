"""The nekRS-ML workflow (paper §4.1): configs and the original/mini-app pair.

The paper profiles a production run — nekRS (a spectral-element CFD
solver) coupled to a GNN surrogate trainer via SmartSim/Redis — and
builds a SimAI-Bench mini-app matching its iteration times and transport
schedule. We do not have the production workflow either, so we build it
the same way the paper characterizes it: the **original** is a run whose
iteration times carry the measured mean *and the measured (heavy) jitter*
(Table 3: sim 0.0312±0.0273 s, training 0.0611±0.1 s — well modeled as
lognormal), while the **mini-app** holds iteration times essentially
constant at the configured values, exactly as the paper's executor does.
Everything else (write/100, poll-read/10, 5000 training iterations,
steering stop) is identical — so Tables 2-3 and Fig 2 compare the same
quantities the paper compares.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config.distributions import Constant, LogNormal
from repro.transport.models import NodeLocalBackendModel, RedisBackendModel, TransportOpContext
from repro.workloads.patterns import (
    DEFAULT_SNAPSHOT_NBYTES,
    GNN_ITER_TIME,
    GNN_MEASURED_MEAN,
    GNN_MEASURED_STD,
    NEKRS_ITER_TIME,
    NEKRS_MEASURED_MEAN,
    NEKRS_MEASURED_STD,
    OneToOneConfig,
    PatternResult,
    run_one_to_one,
)


def nekrs_simulation_config(
    run_time: float = NEKRS_ITER_TIME,
    data_size: tuple[int, int] = (256, 256),
    device: str = "xpu",
) -> dict:
    """The Listing 2 configuration for real-mode Simulation components."""
    return {
        "kernels": [
            {
                "name": "nekrs_iter",
                "run_time": run_time,
                "data_size": list(data_size),
                "mini_app_kernel": "MatMulSimple2D",
                "device": device,
            }
        ]
    }


def nekrs_ai_config(
    run_time: float = GNN_ITER_TIME,
    input_dim: int = 64,
    output_dim: int = 64,
) -> dict:
    """A lightweight feed-forward net matching the GNN's iteration time."""
    return {
        "input_dim": input_dim,
        "hidden_dims": [128, 128],
        "output_dim": output_dim,
        "batch_size": 32,
        "run_time": run_time,
    }


def _lognormal_from_mean_std(mean: float, std: float) -> LogNormal:
    """A lognormal with the given arithmetic mean and standard deviation."""
    cv2 = (std / mean) ** 2
    sigma = math.sqrt(math.log1p(cv2))
    return LogNormal(mean=mean, sigma=sigma)


@dataclass(frozen=True)
class NekrsValidationSetup:
    """The §4.1.1 validation experiment, scaled by ``train_iterations``."""

    train_iterations: int = 5000
    write_interval: int = 100
    read_interval: int = 10
    snapshot_nbytes: float = DEFAULT_SNAPSHOT_NBYTES
    seed: int = 0

    def original_config(self) -> OneToOneConfig:
        """The production workflow: measured means with measured jitter."""
        return OneToOneConfig(
            sim_iter_time=_lognormal_from_mean_std(
                NEKRS_MEASURED_MEAN, NEKRS_MEASURED_STD
            ),
            ai_iter_time=_lognormal_from_mean_std(GNN_MEASURED_MEAN, GNN_MEASURED_STD),
            write_interval=self.write_interval,
            read_interval=self.read_interval,
            train_iterations=self.train_iterations,
            snapshot_nbytes=self.snapshot_nbytes,
            ranks_per_component=1,  # Table 2/3 statistics are per process
            seed=self.seed,
        )

    def miniapp_config(self) -> OneToOneConfig:
        """The SimAI-Bench replica: configured constants (tiny jitter)."""
        return OneToOneConfig(
            sim_iter_time=Constant(NEKRS_ITER_TIME),
            ai_iter_time=Constant(GNN_ITER_TIME),
            write_interval=self.write_interval,
            read_interval=self.read_interval,
            train_iterations=self.train_iterations,
            snapshot_nbytes=self.snapshot_nbytes,
            ranks_per_component=1,
            seed=self.seed + 1,
        )

    def run_original(self) -> PatternResult:
        """Original production workflow: Redis transport (SmartSim's default)."""
        return run_one_to_one(
            RedisBackendModel(),
            self.original_config(),
            ctx=TransportOpContext(local=True, clients_per_server=12),
        )

    def run_miniapp(self, model=None) -> PatternResult:
        """Mini-app replica (defaults to the same Redis deployment)."""
        return run_one_to_one(
            model or RedisBackendModel(),
            self.miniapp_config(),
            ctx=TransportOpContext(local=True, clients_per_server=12),
        )


__all__ = [
    "DEFAULT_SNAPSHOT_NBYTES",
    "GNN_ITER_TIME",
    "NEKRS_ITER_TIME",
    "NekrsValidationSetup",
    "nekrs_ai_config",
    "nekrs_simulation_config",
]
