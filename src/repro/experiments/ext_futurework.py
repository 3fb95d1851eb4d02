"""Extension experiment — the paper's future-work backends at scale.

§5 names two staging paths the authors plan to add: point-to-point
streaming (ADIOS2) and DAOS. Both are implemented here; this experiment
replays the paper's two stress cases with them in the lineup:

* Pattern 1 at 512 nodes (where Lustre collapses): does DAOS's
  distributed metadata avoid the collapse? Does streaming compete with
  node-local staging?
* Pattern 2 at 128 nodes (where incast latency decides): does streaming's
  cheap handshake beat the dictionary protocols?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_series_table
from repro.experiments.common import (
    SIZE_SWEEP_BYTES,
    SIZE_SWEEP_MB,
    backend_models,
    measure_one_to_one,
    pattern1_context,
)
from repro.telemetry.stats import runtime_per_iteration
from repro.transport.models import (
    DaosBackendModel,
    StreamingBackendModel,
    TransportOpContext,
)
from repro.workloads.patterns import ManyToOneConfig, run_many_to_one


def extended_models():
    models = dict(backend_models())
    models["streaming"] = StreamingBackendModel()
    models["daos"] = DaosBackendModel()
    return models


def p1_sweep_point(backend: str, nbytes: float, iterations: int) -> float:
    """Pattern 1 at 512 nodes: write throughput (GB/s) for one cell."""
    m = measure_one_to_one(
        extended_models()[backend], nbytes, n_nodes=512, train_iterations=iterations
    )
    return m.write_throughput / 1e9


def p2_sweep_point(backend: str, nbytes: float, iterations: int) -> float:
    """Pattern 2 at 128 nodes: training runtime per iteration for one cell."""
    n_sims = 127
    n_clients = n_sims + 12
    res = run_many_to_one(
        extended_models()[backend],
        ManyToOneConfig(
            n_simulations=n_sims,
            train_iterations=iterations,
            snapshot_nbytes=nbytes,
        ),
        write_ctx=TransportOpContext(
            local=True, clients_per_server=12, concurrent_clients=n_clients
        ),
        read_ctx=TransportOpContext(
            local=False,
            clients_per_server=12,
            fan_in=n_sims,
            concurrent_peers=12,
            concurrent_clients=n_clients,
        ),
    )
    return runtime_per_iteration(res.log, "train", iterations)


@dataclass
class FutureWorkResult:
    #: pattern 1 write throughput at 512 nodes, backend -> series (GB/s)
    p1_write_512: dict[str, list[float]] = field(default_factory=dict)
    #: pattern 2 runtime/iter at 128 nodes, backend -> series (s)
    p2_runtime_128: dict[str, list[float]] = field(default_factory=dict)
    sizes_mb: list[float] = field(default_factory=lambda: list(SIZE_SWEEP_MB))

    def render(self) -> str:
        blocks = [
            format_series_table(
                "size (MB)",
                self.sizes_mb,
                self.p1_write_512,
                title=(
                    "Extension: Pattern 1 write throughput (GB/s) at 512 nodes "
                    "with the future-work backends"
                ),
            ),
            format_series_table(
                "size (MB)",
                self.sizes_mb,
                self.p2_runtime_128,
                title=(
                    "Extension: Pattern 2 training runtime per iteration (s) at "
                    "128 nodes with the future-work backends"
                ),
            ),
        ]
        return "\n\n".join(blocks)


P1_BACKENDS = ("node-local", "filesystem", "daos", "streaming")
P2_BACKENDS = ("filesystem", "dragon", "daos", "streaming")


def run(sweep=None) -> FutureWorkResult:
    from repro.experiments.common import sweep_values

    p1_iters = 1500
    p2_iters = 500
    result = FutureWorkResult()

    # Pattern 1 at 512 nodes: filesystem vs daos vs node-local vs streaming.
    p1_cells = [
        {"backend": backend, "nbytes": nbytes, "iterations": p1_iters}
        for backend in P1_BACKENDS
        for nbytes in SIZE_SWEEP_BYTES
    ]
    p1_values = iter(sweep_values(p1_sweep_point, p1_cells, sweep=sweep))
    for backend in P1_BACKENDS:
        result.p1_write_512[backend] = [next(p1_values) for _ in SIZE_SWEEP_BYTES]

    # Pattern 2 at 128 nodes: filesystem vs dragon vs daos vs streaming.
    p2_cells = [
        {"backend": backend, "nbytes": nbytes, "iterations": p2_iters}
        for backend in P2_BACKENDS
        for nbytes in SIZE_SWEEP_BYTES
    ]
    p2_values = iter(sweep_values(p2_sweep_point, p2_cells, sweep=sweep))
    for backend in P2_BACKENDS:
        result.p2_runtime_128[backend] = [next(p2_values) for _ in SIZE_SWEEP_BYTES]
    return result


if __name__ == "__main__":
    print(run().render())
