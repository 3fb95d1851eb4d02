"""Typed configuration schema for SimAI-Bench mini-apps.

Configurations mirror the paper's JSON format (Listing 2)::

    {
      "kernels": [
        {
          "name": "nekrs_iter",
          "run_time": 0.03147,
          "data_size": [256, 256],
          "mini_app_kernel": "MatMulSimple2D",
          "device": "xpu"
        }
      ]
    }

``run_time`` and ``run_count`` accept either a number or a distribution
spec (see :mod:`repro.config.distributions`), enabling the stochastic
emulation of variable-performance workloads described in §3.3.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional, Sequence

from repro.config.distributions import Distribution
from repro.errors import ConfigError

VALID_DEVICES = ("cpu", "xpu")


def _require(mapping: Mapping[str, Any], key: str, context: str) -> Any:
    try:
        return mapping[key]
    except KeyError:
        raise ConfigError(f"{context}: missing required key {key!r}") from None


def _check_unknown(mapping: Mapping[str, Any], allowed: set[str], context: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ConfigError(f"{context}: unknown keys {sorted(unknown)}")


@dataclass
class KernelConfig:
    """One kernel invocation inside a Simulation component.

    Exactly how long the kernel runs is controlled by ``run_time`` (seconds
    per iteration, possibly stochastic) and/or ``run_count`` (number of
    inner repetitions). When ``run_time`` is given, real-mode execution
    repeats the kernel until the wall-clock budget is met and sim-mode
    execution charges the sampled time directly.
    """

    mini_app_kernel: str
    name: str = ""
    device: str = "cpu"
    data_size: tuple[int, ...] = (256, 256)
    run_time: Optional[Distribution] = None
    run_count: Optional[Distribution] = None
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.name:
            self.name = self.mini_app_kernel
        if self.device not in VALID_DEVICES:
            raise ConfigError(
                f"kernel {self.name!r}: device must be one of {VALID_DEVICES}, "
                f"got {self.device!r}"
            )
        self.data_size = tuple(int(d) for d in self.data_size)
        if any(d <= 0 for d in self.data_size):
            raise ConfigError(
                f"kernel {self.name!r}: data_size entries must be positive, "
                f"got {self.data_size}"
            )
        if self.run_time is None and self.run_count is None:
            self.run_count = Distribution.from_spec(1)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "KernelConfig":
        context = f"kernel config {raw.get('name', raw.get('mini_app_kernel', '?'))!r}"
        _check_unknown(
            raw,
            {"name", "mini_app_kernel", "device", "data_size", "run_time", "run_count", "params"},
            context,
        )
        kernel = _require(raw, "mini_app_kernel", context)
        kwargs: dict[str, Any] = {"mini_app_kernel": str(kernel)}
        if "name" in raw:
            kwargs["name"] = str(raw["name"])
        if "device" in raw:
            kwargs["device"] = str(raw["device"])
        if "data_size" in raw:
            size = raw["data_size"]
            if isinstance(size, (int, float)):
                size = [int(size)]
            kwargs["data_size"] = tuple(size)
        for key in ("run_time", "run_count"):
            if key in raw and raw[key] is not None:
                kwargs[key] = Distribution.from_spec(raw[key])
        if "params" in raw:
            params = raw["params"]
            if not isinstance(params, Mapping):
                raise ConfigError(f"{context}: params must be a mapping")
            kwargs["params"] = dict(params)
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "name": self.name,
            "mini_app_kernel": self.mini_app_kernel,
            "device": self.device,
            "data_size": list(self.data_size),
        }
        if self.run_time is not None:
            out["run_time"] = self.run_time.to_spec()
        if self.run_count is not None:
            out["run_count"] = self.run_count.to_spec()
        if self.params:
            out["params"] = dict(self.params)
        return out


@dataclass
class SimulationConfig:
    """Configuration of a Simulation component: an ordered kernel sequence."""

    kernels: list[KernelConfig] = field(default_factory=list)
    iterations: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigError(f"iterations must be >= 0, got {self.iterations}")

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "SimulationConfig":
        _check_unknown(raw, {"kernels", "iterations", "seed"}, "simulation config")
        kernels_raw = raw.get("kernels", [])
        if not isinstance(kernels_raw, Sequence) or isinstance(kernels_raw, (str, bytes)):
            raise ConfigError("simulation config: 'kernels' must be a list")
        kernels = [KernelConfig.from_dict(k) for k in kernels_raw]
        return cls(
            kernels=kernels,
            iterations=int(raw.get("iterations", 1)),
            seed=int(raw.get("seed", 0)),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "kernels": [k.to_dict() for k in self.kernels],
            "iterations": self.iterations,
            "seed": self.seed,
        }


@dataclass
class AIConfig:
    """Configuration of an AI component (feed-forward network + schedule).

    Mirrors the Simulation execution control: training runs for
    ``iterations`` steps or, when ``run_time`` is set, each step is padded /
    modeled to take the sampled duration (how the paper matches the GNN's
    0.061 s/iter with a lightweight MLP).
    """

    input_dim: int = 64
    hidden_dims: tuple[int, ...] = (128, 128)
    output_dim: int = 64
    batch_size: int = 32
    learning_rate: float = 1e-3
    iterations: int = 1
    run_time: Optional[Distribution] = None
    device: str = "cpu"
    seed: int = 0
    #: "mlp" (the paper's initial focus) or "gnn" (its future-work
    #: architecture, trained on whole-mesh snapshots of ``mesh_shape``).
    architecture: str = "mlp"
    mesh_shape: tuple[int, int] = (8, 8)

    VALID_ARCHITECTURES = ("mlp", "gnn")

    def __post_init__(self) -> None:
        for label, dim in (("input_dim", self.input_dim), ("output_dim", self.output_dim)):
            if dim <= 0:
                raise ConfigError(f"AI config: {label} must be positive, got {dim}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)
        if any(h <= 0 for h in self.hidden_dims):
            raise ConfigError(f"AI config: hidden_dims must be positive, got {self.hidden_dims}")
        if self.batch_size <= 0:
            raise ConfigError(f"AI config: batch_size must be positive, got {self.batch_size}")
        if self.learning_rate <= 0:
            raise ConfigError(
                f"AI config: learning_rate must be positive, got {self.learning_rate}"
            )
        if self.iterations < 0:
            raise ConfigError(f"AI config: iterations must be >= 0, got {self.iterations}")
        if self.device not in VALID_DEVICES:
            raise ConfigError(
                f"AI config: device must be one of {VALID_DEVICES}, got {self.device!r}"
            )
        if self.architecture not in self.VALID_ARCHITECTURES:
            raise ConfigError(
                f"AI config: architecture must be one of {self.VALID_ARCHITECTURES}, "
                f"got {self.architecture!r}"
            )
        self.mesh_shape = tuple(int(m) for m in self.mesh_shape)
        if len(self.mesh_shape) != 2 or any(m <= 0 for m in self.mesh_shape):
            raise ConfigError(
                f"AI config: mesh_shape must be two positive ints, got {self.mesh_shape}"
            )

    @property
    def n_mesh_nodes(self) -> int:
        return self.mesh_shape[0] * self.mesh_shape[1]

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "AIConfig":
        allowed = {
            "input_dim", "hidden_dims", "output_dim", "batch_size",
            "learning_rate", "iterations", "run_time", "device", "seed",
            "architecture", "mesh_shape",
        }
        _check_unknown(raw, allowed, "AI config")
        kwargs: dict[str, Any] = {}
        for key in allowed:
            if key in raw and raw[key] is not None:
                kwargs[key] = raw[key]
        if "hidden_dims" in kwargs:
            kwargs["hidden_dims"] = tuple(kwargs["hidden_dims"])
        if "mesh_shape" in kwargs:
            kwargs["mesh_shape"] = tuple(kwargs["mesh_shape"])
        if "run_time" in kwargs:
            kwargs["run_time"] = Distribution.from_spec(kwargs["run_time"])
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "output_dim": self.output_dim,
            "batch_size": self.batch_size,
            "learning_rate": self.learning_rate,
            "iterations": self.iterations,
            "device": self.device,
            "seed": self.seed,
            "architecture": self.architecture,
            "mesh_shape": list(self.mesh_shape),
        }
        if self.run_time is not None:
            out["run_time"] = self.run_time.to_spec()
        return out


@dataclass
class ServerConfig:
    """Configuration for a data-transport server deployment.

    ``backend`` selects one of the four transport strategies from the paper:
    ``"node-local"``, ``"filesystem"``, ``"redis"``, or ``"dragon"``.
    """

    backend: str = "node-local"
    path: str = ""
    n_shards: int = 1
    host: str = "127.0.0.1"
    cluster_nodes: tuple[str, ...] = ()
    stripe_size_mb: float = 1.0
    stripe_count: int = 1
    options: dict[str, Any] = field(default_factory=dict)
    #: Optional client-side knobs forwarded verbatim through server_info:
    #: ``chaos`` (fault-injection probabilities) and ``resilience``
    #: (retry/backoff/breaker policy) — see repro.transport.resilience.
    chaos: dict[str, Any] = field(default_factory=dict)
    resilience: dict[str, Any] = field(default_factory=dict)

    VALID_BACKENDS = ("node-local", "filesystem", "redis", "dragon")

    def __post_init__(self) -> None:
        if self.backend not in self.VALID_BACKENDS:
            raise ConfigError(
                f"server config: backend must be one of {self.VALID_BACKENDS}, "
                f"got {self.backend!r}"
            )
        if self.n_shards <= 0:
            raise ConfigError(f"server config: n_shards must be positive, got {self.n_shards}")
        if self.stripe_size_mb <= 0 or self.stripe_count <= 0:
            raise ConfigError("server config: stripe settings must be positive")
        self.cluster_nodes = tuple(self.cluster_nodes)

    @classmethod
    def from_dict(cls, raw: Mapping[str, Any]) -> "ServerConfig":
        allowed = {
            "backend", "path", "n_shards", "host", "cluster_nodes",
            "stripe_size_mb", "stripe_count", "options", "chaos", "resilience",
        }
        _check_unknown(raw, allowed, "server config")
        kwargs = {k: raw[k] for k in allowed if k in raw}
        if "cluster_nodes" in kwargs:
            kwargs["cluster_nodes"] = tuple(kwargs["cluster_nodes"])
        for key in ("options", "chaos", "resilience"):
            if key in kwargs:
                kwargs[key] = dict(kwargs[key])
        return cls(**kwargs)

    def to_dict(self) -> dict[str, Any]:
        return {
            "backend": self.backend,
            "path": self.path,
            "n_shards": self.n_shards,
            "host": self.host,
            "cluster_nodes": list(self.cluster_nodes),
            "stripe_size_mb": self.stripe_size_mb,
            "stripe_count": self.stripe_count,
            "options": dict(self.options),
            **({"chaos": dict(self.chaos)} if self.chaos else {}),
            **({"resilience": dict(self.resilience)} if self.resilience else {}),
        }
