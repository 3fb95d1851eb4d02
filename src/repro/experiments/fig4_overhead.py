"""Fig 4 — computation vs data-transport time per message (Pattern 1).

Compares the mean compute iteration times (AI iter, Sim iter) against the
mean per-message read/write times for the two scaling extremes the paper
plots: node-local (top row) and filesystem (bottom row), each at 8 and
512 nodes.

What the results must show: the ``fig4.*`` rows of ``repro.experiments.claims``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_series_table
from repro.experiments.common import (
    SIZE_SWEEP_BYTES,
    SIZE_SWEEP_MB,
    backend_models,
    measure_one_to_one,
    sweep_values,
)

BACKENDS = ("node-local", "filesystem")
SCALES = (8, 512)


def sweep_point(
    backend: str, scale: int, nbytes: float, iterations: int
) -> tuple[float, float, float, float]:
    """One grid cell: (read s, write s, sim-iter s, ai-iter s)."""
    m = measure_one_to_one(
        backend_models()[backend], nbytes, n_nodes=scale, train_iterations=iterations
    )
    return m.read_time, m.write_time, m.sim_iter_time, m.ai_iter_time


@dataclass
class Fig4Panel:
    backend: str
    n_nodes: int
    read_time: list[float]
    write_time: list[float]
    sim_iter_time: float
    ai_iter_time: float

    def transfer_to_iter_ratio(self, size_index: int) -> float:
        """Per-message write time over one sim iteration time."""
        return self.write_time[size_index] / self.sim_iter_time


@dataclass
class Fig4Result:
    panels: dict[tuple[str, int], Fig4Panel] = field(default_factory=dict)
    sizes_mb: list[float] = field(default_factory=lambda: list(SIZE_SWEEP_MB))

    def panel(self, backend: str, n_nodes: int) -> Fig4Panel:
        return self.panels[(backend, n_nodes)]

    def render(self) -> str:
        blocks = []
        for (backend, scale), panel in sorted(self.panels.items()):
            series = {
                "read (s)": panel.read_time,
                "write (s)": panel.write_time,
                "Sim iter (s)": [panel.sim_iter_time] * len(self.sizes_mb),
                "AI iter (s)": [panel.ai_iter_time] * len(self.sizes_mb),
            }
            blocks.append(
                format_series_table(
                    "size (MB)",
                    self.sizes_mb,
                    series,
                    title=f"Figure 4: compute vs transport, {backend} at {scale} nodes",
                )
            )
        return "\n\n".join(blocks)


def run(sweep=None) -> Fig4Result:
    iterations = 2500
    cells = [
        {"backend": backend, "scale": scale, "nbytes": nbytes, "iterations": iterations}
        for backend in BACKENDS
        for scale in SCALES
        for nbytes in SIZE_SWEEP_BYTES
    ]
    values = sweep_values(sweep_point, cells, sweep=sweep)

    result = Fig4Result()
    it = iter(values)
    for backend in BACKENDS:
        for scale in SCALES:
            series = [next(it) for _ in SIZE_SWEEP_BYTES]
            sim_iter, ai_iter = series[-1][2], series[-1][3]
            result.panels[(backend, scale)] = Fig4Panel(
                backend=backend,
                n_nodes=scale,
                read_time=[s[0] for s in series],
                write_time=[s[1] for s in series],
                sim_iter_time=sim_iter,
                ai_iter_time=ai_iter,
            )
    return result


if __name__ == "__main__":
    print(run().render())
