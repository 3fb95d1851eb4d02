"""Workload builders: the paper's two patterns plus the nekRS-ML setup."""

from repro.workloads.nekrs import (
    NekrsValidationSetup,
    nekrs_ai_config,
    nekrs_simulation_config,
)
from repro.workloads.patterns import (
    DEFAULT_SNAPSHOT_NBYTES,
    GNN_ITER_TIME,
    NEKRS_ITER_TIME,
    ManyToOneConfig,
    OneToOneConfig,
    PatternResult,
    run_many_to_one,
    run_one_to_one,
)
from repro.workloads.inference import (
    InferenceLoopConfig,
    InferenceResult,
    run_inference_loop,
)
from repro.workloads.profiling import (
    TransportSchedule,
    calibrate_run_time,
    calibrate_simulation_config,
    calibrate_transport_schedule,
)
from repro.workloads.realrun import (
    RealOneToOneConfig,
    RealRunResult,
    run_one_to_one_real,
)

__all__ = [
    "DEFAULT_SNAPSHOT_NBYTES",
    "GNN_ITER_TIME",
    "InferenceLoopConfig",
    "InferenceResult",
    "ManyToOneConfig",
    "NEKRS_ITER_TIME",
    "NekrsValidationSetup",
    "OneToOneConfig",
    "PatternResult",
    "RealOneToOneConfig",
    "RealRunResult",
    "TransportSchedule",
    "calibrate_run_time",
    "calibrate_simulation_config",
    "calibrate_transport_schedule",
    "nekrs_ai_config",
    "nekrs_simulation_config",
    "run_inference_loop",
    "run_many_to_one",
    "run_one_to_one",
    "run_one_to_one_real",
]
