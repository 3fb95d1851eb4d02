"""Fig 6 — Pattern 2 training runtime per iteration vs data size, scaled.

One simulation per node, a single AI trainer on its own node; the trainer
blocks until each update has arrived from every simulation. Runtime per
iteration = total training-component execution time / iterations, so it
folds compute *and* transport together, as the paper specifies.

Shapes to match (§4.2):

* 8 nodes: runtime grows with size for all backends; redis worst; dragon
  and filesystem about equal;
* 128 nodes: redis still worst; dragon substantially slower than the
  filesystem below ~10 MB (incast latency dominating), comparable above;
  filesystem is the best overall choice for this pattern.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_series_table
from repro.experiments.common import (
    PATTERN2_BACKENDS,
    SIZE_SWEEP_BYTES,
    SIZE_SWEEP_MB,
    backend_models,
    pattern2_contexts,
    sweep_values,
)
from repro.telemetry.stats import runtime_per_iteration
from repro.workloads.patterns import ManyToOneConfig, run_many_to_one

SCALES = (8, 128)


def sweep_point(backend: str, scale: int, nbytes: float, iterations: int) -> float:
    """One grid cell: training runtime per iteration (seconds)."""
    n_sims = scale - 1  # one node reserved for the trainer
    config = ManyToOneConfig(
        n_simulations=n_sims,
        train_iterations=iterations,
        snapshot_nbytes=nbytes,
    )
    write_ctx, read_ctx = pattern2_contexts(scale)
    res = run_many_to_one(
        backend_models()[backend], config, write_ctx=write_ctx, read_ctx=read_ctx
    )
    return runtime_per_iteration(res.log, "train", iterations)


@dataclass
class Fig6Result:
    #: runtime[scale][backend] = seconds/iteration per size
    runtime: dict[int, dict[str, list[float]]] = field(default_factory=dict)
    sizes_mb: list[float] = field(default_factory=lambda: list(SIZE_SWEEP_MB))

    def render(self) -> str:
        blocks = []
        for scale in sorted(self.runtime):
            blocks.append(
                format_series_table(
                    "size (MB)",
                    self.sizes_mb,
                    self.runtime[scale],
                    title=(
                        f"Figure 6 ({'a' if scale == 8 else 'b'}): training runtime "
                        f"per iteration (s) at {scale} nodes"
                    ),
                )
            )
        return "\n\n".join(blocks)


def run(sweep=None) -> Fig6Result:
    iterations = 1000
    cells = [
        {"backend": backend, "scale": scale, "nbytes": nbytes, "iterations": iterations}
        for scale in SCALES
        for backend in PATTERN2_BACKENDS
        for nbytes in SIZE_SWEEP_BYTES
    ]
    values = sweep_values(sweep_point, cells, sweep=sweep)

    result = Fig6Result()
    it = iter(values)
    for scale in SCALES:
        result.runtime[scale] = {
            backend: [next(it) for _ in SIZE_SWEEP_BYTES]
            for backend in PATTERN2_BACKENDS
        }
    return result


if __name__ == "__main__":
    print(run().render())
