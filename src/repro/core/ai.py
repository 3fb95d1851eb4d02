"""The AI component: emulates ML training/inference (paper §3.4).

Wraps a real feed-forward network (:mod:`repro.ml`) in the same execution
control as the Simulation class: training proceeds for a prescribed number
of iterations, and when ``run_time`` is configured each iteration is
padded to the sampled duration — how the paper's mini-app matches the
production GNN's 0.061 s/iteration with a lightweight MLP. The trainer is
one rank: a step is zero_grad, forward, loss, backward and an optimizer
step.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

import numpy as np

from repro.config.loader import load_ai_config
from repro.config.schema import AIConfig
from repro.core.component import Component
from repro.errors import ConfigError, MLError
from repro.ml.data import ReplayDataset, SnapshotDataset
from repro.ml.graph import build_gnn, mesh_graph
from repro.ml.loss import MSELoss
from repro.ml.network import build_mlp, train_step
from repro.ml.optim import Adam
from repro.telemetry.events import EventKind
from repro.telemetry.timer import Stopwatch


class AI(Component):
    """Emulates the AI side of a coupled workflow."""

    kind = "ai"

    def __init__(
        self,
        name: str,
        config: Union[AIConfig, Mapping[str, Any], str, None] = None,
        server_info: Optional[Mapping[str, Any]] = None,
        **component_kwargs,
    ) -> None:
        with Stopwatch(component_kwargs.get("clock") or _default_clock()) as sw:
            super().__init__(name, server_info=server_info, **component_kwargs)
            if config is None:
                config = AIConfig()
            elif not isinstance(config, AIConfig):
                config = load_ai_config(config)
            self.config = config
            self.rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 17, 0])  # rank 0
            )
            if config.architecture == "gnn":
                # The paper's future-work architecture: a GCN over the
                # simulation mesh, trained on whole-mesh snapshots.
                self.model = build_gnn(
                    mesh_graph(*config.mesh_shape),
                    in_features=config.input_dim,
                    hidden_features=config.hidden_dims,
                    out_features=config.output_dim,
                    rng=np.random.default_rng(config.seed),
                )
                self.dataset: Any = SnapshotDataset(rng=self.rng)
            else:
                self.model = build_mlp(config)
                self.dataset = ReplayDataset(rng=self.rng)
            self.optimizer = Adam(self.model, lr=config.learning_rate)
            self.loss_fn = MSELoss()
            self.iterations_run = 0
            self.losses: list[float] = []
        self.record_init(sw.start, sw.elapsed)

    # -- data ingestion ---------------------------------------------------------
    def add_training_data(self, x: np.ndarray, y: np.ndarray) -> None:
        """Mix a staged snapshot into the training pool."""
        self.dataset.add(x, y)

    def ingest_staged(self, key: str) -> bool:
        """Read a staged (x, y) snapshot by key and add it to the pool.

        Returns False (without blocking) when the key is not yet staged —
        the asynchronous polling pattern of the nekRS-ML workflow.
        """
        if not self.poll_staged_data(key):
            return False
        payload = self.stage_read(key)
        try:
            x, y = payload
        except (TypeError, ValueError):
            raise MLError(
                f"staged value under {key!r} is not an (x, y) pair"
            ) from None
        self.add_training_data(np.asarray(x), np.asarray(y))
        return True

    # -- execution -----------------------------------------------------------------
    def train_iteration(self) -> float:
        """One training step, padded to run_time."""
        start = self.clock.now()
        budget = (
            self.config.run_time.sample(self.rng)
            if self.config.run_time is not None
            else None
        )
        if len(self.dataset) == 0:
            # No data yet: emulate a stalled data loader (wait out the
            # iteration budget, as the production trainer's loader would).
            loss = float("nan")
        else:
            if self.config.architecture == "gnn":
                # Whole-mesh training: a step is one snapshot, not a batch of rows.
                x, y = self.dataset.sample()
            else:
                x, y = self.dataset.sample(self.config.batch_size)
            loss = train_step(self.model, self.optimizer, x, y, loss_fn=self.loss_fn)
        self.losses.append(loss)
        if budget is not None:
            elapsed = self.clock.now() - start
            if elapsed < budget:
                self.clock.sleep(budget - elapsed)
        duration = self.clock.now() - start
        self.event_log.add(
            component=self.name,
            kind=EventKind.TRAIN,
            start=start,
            duration=duration,
        )
        self.iterations_run += 1
        return duration

    def run(self, iterations: Optional[int] = None) -> float:
        """Train for ``iterations`` (default config.iterations) steps."""
        count = self.config.iterations if iterations is None else iterations
        if count < 0:
            raise ConfigError(f"iterations must be >= 0, got {count}")
        start = self.clock.now()
        for _ in range(count):
            self.train_iteration()
        return self.clock.now() - start

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Inference through the current model."""
        self.model.eval()
        try:
            return self.model(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        finally:
            self.model.train()

    @property
    def last_loss(self) -> float:
        return self.losses[-1] if self.losses else float("nan")


def _default_clock():
    from repro.telemetry.timer import RealClock

    return RealClock()
