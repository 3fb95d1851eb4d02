"""Experiment drivers: one module per table/figure in the paper.

Each exposes ``run() -> Result`` where the result has a ``render()``
returning the paper-style table text. The CLI entry point (an alias of
``python -m repro sweep``)::

    python -m repro.experiments all
    python -m repro.experiments fig3
"""

from repro.experiments import (
    ext_faults,
    ext_futurework,
    ext_inference,
    fig2_timeline,
    fig3_throughput,
    fig4_overhead,
    fig5_twonode,
    fig6_scaling,
    table1_kernels,
    table2_validation,
    table3_iterstats,
)

#: Paper artifacts. "all" on the CLI runs exactly these.
ALL_EXPERIMENTS = {
    "table1": table1_kernels,
    "table2": table2_validation,
    "table3": table3_iterstats,
    "fig2": fig2_timeline,
    "fig3": fig3_throughput,
    "fig4": fig4_overhead,
    "fig5": fig5_twonode,
    "fig6": fig6_scaling,
}

#: Extension studies beyond the paper (run by explicit name).
EXTENSION_EXPERIMENTS = {
    "ext_inference": ext_inference,
    "ext_futurework": ext_futurework,
    "ext_faults": ext_faults,
}

__all__ = ["ALL_EXPERIMENTS", "EXTENSION_EXPERIMENTS"]
