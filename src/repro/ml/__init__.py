"""A from-scratch neural-network library (the PyTorch stand-in).

Provides exactly what the paper's AI component needs: feed-forward
fully-connected models, MSE/cross-entropy losses and SGD/Adam, trained on
one rank.
"""

from repro.ml.data import DataLoader, ReplayDataset, synthetic_snapshot
from repro.ml.graph import (
    GraphConv,
    HaloExchangeModel,
    build_gnn,
    mesh_graph,
    normalized_adjacency,
)
from repro.ml.layers import (
    ACTIVATIONS,
    GELU,
    Linear,
    Module,
    ReLU,
    Sequential,
    Sigmoid,
    Tanh,
)
from repro.ml.loss import CrossEntropyLoss, Loss, MSELoss
from repro.ml.network import build_mlp, evaluate, train_step
from repro.ml.optim import Adam, Optimizer, SGD

__all__ = [
    "ACTIVATIONS",
    "Adam",
    "CrossEntropyLoss",
    "DataLoader",
    "GELU",
    "GraphConv",
    "HaloExchangeModel",
    "Linear",
    "Loss",
    "MSELoss",
    "Module",
    "Optimizer",
    "ReLU",
    "ReplayDataset",
    "SGD",
    "Sequential",
    "Sigmoid",
    "Tanh",
    "build_gnn",
    "build_mlp",
    "evaluate",
    "mesh_graph",
    "normalized_adjacency",
    "synthetic_snapshot",
    "train_step",
]
