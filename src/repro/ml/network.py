"""Feed-forward network builder + a convenience training step.

The paper's AI class "supports distributed data-parallel training with DDP
from torch.distributed, with an initial focus on a feed-forward, fully-
connected neural network models" (§3.4). :func:`build_mlp` constructs that
model family from an :class:`~repro.config.AIConfig`; :func:`train_step` is
the AI component's step, on one rank.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.config.schema import AIConfig
from repro.errors import MLError
from repro.ml.layers import ACTIVATIONS, Linear, Module, Sequential
from repro.ml.loss import Loss, MSELoss


def build_mlp(
    config: AIConfig,
    rng: Optional[np.random.Generator] = None,
    activation: str = "relu",
) -> Sequential:
    """Build the fully-connected network an AIConfig describes."""
    try:
        act_cls = ACTIVATIONS[activation]
    except KeyError:
        raise MLError(
            f"unknown activation {activation!r}; options {sorted(ACTIVATIONS)}"
        ) from None
    rng = rng or np.random.default_rng(config.seed)
    dims = [config.input_dim, *config.hidden_dims, config.output_dim]
    modules: list[Module] = []
    for i, (d_in, d_out) in enumerate(zip(dims, dims[1:])):
        modules.append(Linear(d_in, d_out, rng=rng))
        if i < len(dims) - 2:
            modules.append(act_cls())
    return Sequential(*modules)


def train_step(
    model: Sequential,
    optimizer,
    x: np.ndarray,
    y: np.ndarray,
    loss_fn: Optional[Loss] = None,
) -> float:
    """One SGD step: forward, loss, backward, update. Returns the loss."""
    loss_fn = loss_fn or MSELoss()
    optimizer.zero_grad()
    pred = model(x)
    value, grad = loss_fn(pred, y)
    model.backward(grad)
    optimizer.step()
    return value


def evaluate(model: Sequential, x: np.ndarray, y: np.ndarray, loss_fn: Optional[Loss] = None) -> float:
    """Loss on a batch without updating parameters."""
    loss_fn = loss_fn or MSELoss()
    model.eval()
    try:
        value, _ = loss_fn(model(x), y)
    finally:
        model.train()
    return value
