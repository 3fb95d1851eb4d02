"""Workload builders: the paper's two patterns plus the nekRS-ML setup.

Names resolve on first use (see :mod:`repro`): a simulated run does not
load the real-mode runner or the nekRS setup.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "DEFAULT_SNAPSHOT_NBYTES": ".patterns",
    "GNN_ITER_TIME": ".patterns",
    "InferenceLoopConfig": ".inference",
    "InferenceResult": ".inference",
    "ManyToOneConfig": ".patterns",
    "NEKRS_ITER_TIME": ".patterns",
    "NekrsValidationSetup": ".nekrs",
    "OneToOneConfig": ".patterns",
    "PatternResult": ".patterns",
    "RealOneToOneConfig": ".realrun",
    "RealRunResult": ".realrun",
    "nekrs_ai_config": ".nekrs",
    "nekrs_simulation_config": ".nekrs",
    "run_inference_loop": ".inference",
    "run_many_to_one": ".patterns",
    "run_one_to_one": ".patterns",
    "run_one_to_one_real": ".realrun",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
