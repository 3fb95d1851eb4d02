"""Fig 3 — Pattern 1 read/write throughput vs array size, 8 and 512 nodes.

For every backend and message size in the paper's sweep (0.4-32 MB), runs
the co-located one-to-one mini-app and reports the per-process read and
write throughput averaged over all processes and events.

Shapes to match (§4.1.2):

* in-memory backends (node-local, dragon, redis): non-monotonic — rising
  with size, dipping past the ~8 MB per-process L3 share;
* node-local ≳ dragon > redis;
* filesystem: monotonic rise with size; collapses at 512 nodes from MDS
  metadata contention while the others are unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_series_table
from repro.experiments.common import (
    PATTERN1_BACKENDS,
    SIZE_SWEEP_BYTES,
    SIZE_SWEEP_MB,
    backend_models,
    measure_one_to_one,
    sweep_values,
)

SCALES = (8, 512)


def sweep_point(
    backend: str, nbytes: float, scale: int, iterations: int, telemetry=None
) -> tuple[float, float]:
    """One grid cell: (read, write) throughput for backend x size x scale."""
    m = measure_one_to_one(
        backend_models()[backend],
        nbytes,
        n_nodes=scale,
        train_iterations=iterations,
        telemetry=telemetry,
    )
    return m.read_throughput, m.write_throughput


@dataclass
class Fig3Result:
    #: throughput[scale][backend] = [bytes/s per size]
    read: dict[int, dict[str, list[float]]] = field(default_factory=dict)
    write: dict[int, dict[str, list[float]]] = field(default_factory=dict)
    sizes_mb: list[float] = field(default_factory=lambda: list(SIZE_SWEEP_MB))

    def render(self) -> str:
        blocks = []
        for scale in sorted(self.read):
            for metric, data in (("read", self.read), ("write", self.write)):
                series = {
                    backend: [v / 1e9 for v in data[scale][backend]]
                    for backend in data[scale]
                }
                blocks.append(
                    format_series_table(
                        "size (MB)",
                        self.sizes_mb,
                        series,
                        title=(
                            f"Figure 3 ({'a' if scale == 8 else 'b'}): {metric} "
                            f"throughput per process (GB/s) at {scale} nodes"
                        ),
                    )
                )
        return "\n\n".join(blocks)


def run(backends=None, telemetry=None, sweep=None) -> Fig3Result:
    """Run the sweep; ``backends`` restricts it, ``telemetry`` records it.

    When a :class:`~repro.telemetry.hub.Telemetry` hub is given, every
    pattern run contributes transport/workload spans and engine gauge
    series to it — one trace file covering the whole sweep. ``sweep``
    (a :class:`~repro.sweep.engine.SweepOptions`) fans the grid out
    across worker processes and/or a result cache; for a fixed seed the
    rendered output is bit-identical to the serial path.
    """
    iterations = 2500
    backends = list(backends or PATTERN1_BACKENDS)
    cells = [
        {"backend": backend, "nbytes": nbytes, "scale": scale, "iterations": iterations}
        for scale in SCALES
        for backend in backends
        for nbytes in SIZE_SWEEP_BYTES
    ]
    values = sweep_values(sweep_point, cells, sweep=sweep, telemetry=telemetry)

    result = Fig3Result()
    it = iter(values)
    for scale in SCALES:
        result.read[scale] = {}
        result.write[scale] = {}
        for backend in backends:
            series = [next(it) for _ in SIZE_SWEEP_BYTES]
            result.read[scale][backend] = [read for read, _ in series]
            result.write[scale][backend] = [write for _, write in series]
    return result


if __name__ == "__main__":
    print(run().render())
