"""Extension experiment — latency-limited coupled inference.

Not a paper artifact: quantifies the intro's claim that inference
coupling is latency-limited ("the cost of data transfer dominating over
the computational one", §1) across the backends, using the blocking
round-trip pattern of :mod:`repro.workloads.inference`.

Expected outcome: at inference-sized messages (~0.1 MB requests) the
round trip is dominated by backend latency, so the ordering follows
per-op latency (node-local < dragon < redis < filesystem) — a different
winner profile than the bandwidth-bound training patterns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.report import format_table
from repro.experiments.common import backend_models, pattern1_context, sweep_values
from repro.transport.models import StreamingBackendModel
from repro.workloads.inference import InferenceLoopConfig, run_inference_loop


def _inference_models():
    models = dict(backend_models())
    models["streaming"] = StreamingBackendModel()
    return models


def sweep_point(backend: str, iterations: int) -> tuple[float, float]:
    """One grid cell: (mean round trip s, transport fraction of the loop)."""
    res = run_inference_loop(
        _inference_models()[backend],
        InferenceLoopConfig(iterations=iterations),
        ctx=pattern1_context(8),
    )
    return res.mean_round_trip, res.transport_fraction


@dataclass
class InferenceExtResult:
    #: backend -> (mean round trip s, transport fraction)
    rows: dict[str, tuple[float, float]] = field(default_factory=dict)

    def render(self) -> str:
        table_rows = [
            (name, rt * 1e3, frac * 100.0)
            for name, (rt, frac) in sorted(self.rows.items(), key=lambda kv: kv[1][0])
        ]
        return format_table(
            ["backend", "round trip (ms)", "transport share of loop (%)"],
            table_rows,
            title="Extension: blocking inference round trip (0.1 MB requests)",
        )


def run(sweep=None) -> InferenceExtResult:
    iterations = 500
    names = list(_inference_models())
    cells = [{"backend": name, "iterations": iterations} for name in names]
    values = sweep_values(sweep_point, cells, sweep=sweep)
    result = InferenceExtResult()
    for name, value in zip(names, values):
        result.rows[name] = value
    return result


if __name__ == "__main__":
    print(run().render())
