"""Experiment drivers: one module per table/figure in the paper.

Each exposes ``run() -> Result`` where the result has a ``render()``
returning the paper-style table text. The CLI entry point (an alias of
``python -m repro sweep``)::

    python -m repro.experiments all
    python -m repro.experiments fig3

The registries name each driver's module; :func:`driver` imports one on
first use, so running one experiment loads no other driver.
"""

import importlib

#: Paper artifacts, name -> driver module. "all" on the CLI runs exactly these.
ALL_EXPERIMENTS = {
    "table1": "table1_kernels",
    "table2": "table2_validation",
    "table3": "table3_iterstats",
    "fig2": "fig2_timeline",
    "fig3": "fig3_throughput",
    "fig4": "fig4_overhead",
    "fig5": "fig5_twonode",
    "fig6": "fig6_scaling",
}

#: Extension studies beyond the paper (run by explicit name).
EXTENSION_EXPERIMENTS = {
    "ext_inference": "ext_inference",
    "ext_futurework": "ext_futurework",
    "ext_faults": "ext_faults",
}

__all__ = ["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS", "driver"]


def driver(name):
    """The driver module registered as ``name`` (``"fig3"``, ``"ext_faults"``)."""
    module = ALL_EXPERIMENTS.get(name) or EXTENSION_EXPERIMENTS[name]
    return importlib.import_module(f"{__name__}.{module}")


def __getattr__(name):
    if name not in (*ALL_EXPERIMENTS.values(), *EXTENSION_EXPERIMENTS.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{name}")
    globals()[name] = value
    return value
