"""Fig 5 — Pattern 2 at two nodes: non-local read, local write throughput.

One simulation component and one AI component on different nodes. The
simulation stages locally; the AI reads non-locally. The node-local
backend is excluded (impossible in this pattern) as in the paper.

What the results must show: the ``fig5.*`` rows of ``repro.experiments.claims``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_series_table
from repro.experiments.common import (
    PATTERN2_BACKENDS,
    SIZE_SWEEP_BYTES,
    SIZE_SWEEP_MB,
    backend_models,
    sweep_values,
)
from repro.telemetry.events import EventKind
from repro.telemetry.stats import mean_throughput
from repro.transport.models import TransportOpContext
from repro.workloads.patterns import ManyToOneConfig, run_many_to_one


def sweep_point(backend: str, nbytes: float, iterations: int) -> tuple[float, float]:
    """One grid cell: (non-local read, local write) throughput."""
    config = ManyToOneConfig(
        n_simulations=1,
        train_iterations=iterations,
        snapshot_nbytes=nbytes,
        reader_lanes=1,
    )
    res = run_many_to_one(
        backend_models()[backend],
        config,
        write_ctx=TransportOpContext(local=True, clients_per_server=12),
        read_ctx=TransportOpContext(
            local=False, clients_per_server=12, fan_in=1, concurrent_clients=2
        ),
    )
    return (
        mean_throughput(res.log, EventKind.READ),
        mean_throughput(res.log, EventKind.WRITE),
    )


@dataclass
class Fig5Result:
    read: dict[str, list[float]] = field(default_factory=dict)  # non-local read
    write: dict[str, list[float]] = field(default_factory=dict)  # local write
    sizes_mb: list[float] = field(default_factory=lambda: list(SIZE_SWEEP_MB))

    def render(self) -> str:
        blocks = []
        for label, data in (("(a) non-local read", self.read), ("(b) local write", self.write)):
            series = {b: [v / 1e9 for v in vals] for b, vals in data.items()}
            blocks.append(
                format_series_table(
                    "size (MB)",
                    self.sizes_mb,
                    series,
                    title=f"Figure 5 {label} throughput (GB/s), 2-node Pattern 2",
                )
            )
        return "\n\n".join(blocks)


def run(sweep=None) -> Fig5Result:
    iterations = 2500
    cells = [
        {"backend": backend, "nbytes": nbytes, "iterations": iterations}
        for backend in PATTERN2_BACKENDS
        for nbytes in SIZE_SWEEP_BYTES
    ]
    values = sweep_values(sweep_point, cells, sweep=sweep)

    result = Fig5Result()
    it = iter(values)
    for backend in PATTERN2_BACKENDS:
        series = [next(it) for _ in SIZE_SWEEP_BYTES]
        result.read[backend] = [read for read, _ in series]
        result.write[backend] = [write for _, write in series]
    return result


if __name__ == "__main__":
    print(run().render())
