"""Configuration schema, loaders, and stochastic parameter distributions.

Names resolve on first use (see :mod:`repro`).
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "AIConfig": ".schema",
    "Constant": ".distributions",
    "Discrete": ".distributions",
    "Distribution": ".distributions",
    "Exponential": ".distributions",
    "KernelConfig": ".schema",
    "LogNormal": ".distributions",
    "Normal": ".distributions",
    "ServerConfig": ".schema",
    "SimulationConfig": ".schema",
    "Uniform": ".distributions",
    "load_ai_config": ".loader",
    "load_config": ".loader",
    "load_server_config": ".loader",
    "load_simulation_config": ".loader",
    "save_config": ".loader",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
