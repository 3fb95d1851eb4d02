"""Table 3 — iteration-time mean/std fidelity: original vs mini-app.

Paper reference values:

    ==========  ================  ================
                Simulation        Training
                mean (s)  std     mean (s)  std
    Original    0.0312    0.0273  0.0611    0.1
    Mini-app    0.0325    0.0011  0.0633    0.0017
    ==========  ================  ================

The headline behaviours to reproduce: mini-app means within a few percent
of the original's, and a mini-app std that is orders of magnitude smaller
(the executor pins iteration durations to the configured value, §4.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.validation import IterationComparison, compare_iteration_stats
from repro.telemetry.events import EventKind

PAPER_TABLE3 = {
    "original": {"sim_mean": 0.0312, "sim_std": 0.0273, "train_mean": 0.0611, "train_std": 0.1},
    "miniapp": {"sim_mean": 0.0325, "sim_std": 0.0011, "train_mean": 0.0633, "train_std": 0.0017},
}


@dataclass
class Table3Result:
    sim: IterationComparison
    train: IterationComparison
    train_iterations: int

    def render(self) -> str:
        rows = [
            (
                "Original",
                self.sim.original.mean,
                self.sim.original.std,
                self.train.original.mean,
                self.train.original.std,
            ),
            (
                "Mini-app",
                self.sim.miniapp.mean,
                self.sim.miniapp.std,
                self.train.miniapp.mean,
                self.train.miniapp.std,
            ),
        ]
        table = format_table(
            ["", "Sim mean (s)", "Sim std (s)", "Train mean (s)", "Train std (s)"],
            rows,
            title=(
                "Table 3: iteration time statistics "
                f"({self.train_iterations} training iterations)"
            ),
        )
        p = PAPER_TABLE3
        table += (
            f"\npaper:    original {p['original']['sim_mean']}/{p['original']['sim_std']} sim, "
            f"{p['original']['train_mean']}/{p['original']['train_std']} train; "
            f"mini-app {p['miniapp']['sim_mean']}/{p['miniapp']['sim_std']} sim, "
            f"{p['miniapp']['train_mean']}/{p['miniapp']['train_std']} train"
        )
        return table


def run(seed: int = 0, sweep=None) -> Table3Result:
    from repro.experiments.common import nekrs_validation_point, sweep_values

    iterations = 5000
    cells = [
        {"which": which, "iterations": iterations, "seed": seed}
        for which in ("original", "miniapp")
    ]
    original, miniapp = sweep_values(nekrs_validation_point, cells, sweep=sweep)
    return Table3Result(
        sim=compare_iteration_stats(original.log, miniapp.log, "sim", EventKind.COMPUTE),
        train=compare_iteration_stats(original.log, miniapp.log, "train", EventKind.TRAIN),
        train_iterations=iterations,
    )


if __name__ == "__main__":
    print(run().render())
