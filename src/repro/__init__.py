"""repro — reproduction of "In-Transit Data Transport Strategies for
Coupled AI-Simulation Workflow Patterns" (SC 2025).

The package re-implements the paper's SimAI-Bench framework and every
substrate it depends on (a discrete-event engine charged by calibrated
per-backend transport cost models, data-transport backends, a small
neural-network library), plus the
experiment drivers that regenerate every table and figure of the paper's
evaluation section.

Top-level convenience imports expose the SimAI-Bench-style public API::

    from repro import Workflow, Simulation, AI, ServerManager, DataStore

Like every package ``__init__`` here, this one resolves a re-exported
name on first attribute access, from an ``{name: module}`` table, and
caches it in the module's globals: an import costs only what its caller
uses.
"""

import importlib

from repro.version import __version__

#: Exported name -> the module that defines it.
_EXPORTS = {
    "AI": ".core",
    "DataStore": ".transport",
    "ServerManager": ".transport",
    "Simulation": ".core",
    "Workflow": ".core",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
