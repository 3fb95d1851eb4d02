"""Table 2 — event-count fidelity: original workflow vs mini-app.

Runs the synthesized "original" nekRS-ML workflow (measured iteration-time
distributions, Redis transport) and its SimAI-Bench mini-app replica, and
compares time-step and data-transport event counts per component.

Paper reference values (5000 training iterations):

    ============  =========  ==============  =========  ==============
                  Simulation                 Training
                  timestep   data transport  timestep   data transport
    Original      10108      203             5000       208
    Mini-app      10507      211             5000       208
    ============  =========  ==============  =========  ==============
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.core.validation import CountComparison, compare_event_counts

PAPER_TABLE2 = {
    "original": {"sim_timestep": 10108, "sim_transport": 203, "train_timestep": 5000, "train_transport": 208},
    "miniapp": {"sim_timestep": 10507, "sim_transport": 211, "train_timestep": 5000, "train_transport": 208},
}


@dataclass
class Table2Result:
    sim: CountComparison
    train: CountComparison
    train_iterations: int

    def render(self) -> str:
        rows = [
            (
                "Original",
                self.sim.original_timesteps,
                self.sim.original_transport,
                self.train.original_timesteps,
                self.train.original_transport,
            ),
            (
                "Mini-app",
                self.sim.miniapp_timesteps,
                self.sim.miniapp_transport,
                self.train.miniapp_timesteps,
                self.train.miniapp_transport,
            ),
        ]
        table = format_table(
            ["", "Sim timestep", "Sim transport", "Train timestep", "Train transport"],
            rows,
            title=(
                "Table 2: time steps and data transport events "
                f"({self.train_iterations} training iterations)"
            ),
        )
        if self.train_iterations == 5000:
            paper = PAPER_TABLE2
            table += (
                "\npaper:    original "
                f"{paper['original']['sim_timestep']}/{paper['original']['sim_transport']} sim, "
                f"{paper['original']['train_timestep']}/{paper['original']['train_transport']} train; "
                "mini-app "
                f"{paper['miniapp']['sim_timestep']}/{paper['miniapp']['sim_transport']} sim, "
                f"{paper['miniapp']['train_timestep']}/{paper['miniapp']['train_transport']} train"
            )
        return table


def run(seed: int = 0, sweep=None) -> Table2Result:
    from repro.experiments.common import nekrs_validation_point, sweep_values

    iterations = 5000
    cells = [
        {"which": which, "iterations": iterations, "seed": seed}
        for which in ("original", "miniapp")
    ]
    original, miniapp = sweep_values(nekrs_validation_point, cells, sweep=sweep)
    return Table2Result(
        sim=compare_event_counts(original.log, miniapp.log, "sim"),
        train=compare_event_counts(original.log, miniapp.log, "train"),
        train_iterations=iterations,
    )


if __name__ == "__main__":
    print(run().render())
