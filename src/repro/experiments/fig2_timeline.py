"""Fig 2 — execution timeline comparison: original vs mini-app.

Renders a segment of both runs' timelines (computation fill, transfer
marks, init shading) and computes the compute-occupancy correlation
between them as the quantitative counterpart of the paper's visual
comparison.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.validation import timeline_similarity
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.timeline import Timeline


@dataclass
class Fig2Result:
    original_log: EventLog
    miniapp_log: EventLog
    window: tuple[float, float]
    sim_similarity: float
    train_similarity: float

    def render(self, width: int = 100) -> str:
        original = Timeline.from_log(
            self.original_log, components=["sim", "train"], window=self.window
        )
        miniapp = Timeline.from_log(
            self.miniapp_log, components=["sim", "train"], window=self.window
        )
        body = Timeline.render_comparison(original, miniapp, width=width)
        return (
            "Figure 2: execution timelines, original nekRS-ML vs mini-app\n"
            + body
            + f"\ncompute-occupancy correlation: sim={self.sim_similarity:.3f} "
            + f"train={self.train_similarity:.3f}"
        )


def run(seed: int = 0, sweep=None) -> Fig2Result:
    from repro.experiments.common import nekrs_validation_point, sweep_values

    iterations = 2000
    cells = [
        {"which": which, "iterations": iterations, "seed": seed}
        for which in ("original", "miniapp")
    ]
    original, miniapp = sweep_values(nekrs_validation_point, cells, sweep=sweep)
    # A representative mid-run segment, as in the paper's figure.
    end = min(original.makespan, miniapp.makespan)
    window = (0.0, min(60.0, end))
    return Fig2Result(
        original_log=original.log,
        miniapp_log=miniapp.log,
        window=window,
        sim_similarity=timeline_similarity(
            original.log, miniapp.log, "sim", EventKind.COMPUTE
        ),
        train_similarity=timeline_similarity(
            original.log, miniapp.log, "train", EventKind.TRAIN
        ),
    )


if __name__ == "__main__":
    print(run().render())
