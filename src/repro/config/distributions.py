"""Stochastic parameter specifications for mini-app kernels.

The paper (§3.3) lets ``run_time`` and ``run_count`` be either fixed values
or discrete probability density functions sampled at every iteration. We
support a small algebra of distributions, each constructible from a plain
JSON-friendly dict so configurations stay serialisable::

    {"dist": "constant", "value": 0.03}
    {"dist": "discrete", "values": [0.01, 0.02], "weights": [0.7, 0.3]}
    {"dist": "uniform", "low": 0.01, "high": 0.05}
    {"dist": "normal", "mean": 0.03, "std": 0.005, "min": 0.0}
    {"dist": "lognormal", "mean": 0.03, "sigma": 0.5}
    {"dist": "exponential", "scale": 0.02, "shift": 0.01}

``Distribution.from_spec`` accepts either such a dict, a bare number
(treated as constant), or an existing :class:`Distribution`.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence, Union

import numpy as np

from repro.errors import ConfigError

SpecLike = Union["Distribution", Mapping[str, Any], int, float]


class Distribution:
    """Base class: a sampleable scalar parameter."""

    kind = "abstract"

    def sample(self, rng: np.random.Generator) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        """Analytic mean, used for validation and for sim-mode planning."""
        raise NotImplementedError

    def to_spec(self) -> dict[str, Any]:
        """Serialise back to a JSON-friendly dict."""
        raise NotImplementedError

    @staticmethod
    def from_spec(spec: SpecLike) -> "Distribution":
        """Build a distribution from a number, dict spec, or distribution."""
        if isinstance(spec, Distribution):
            return spec
        if isinstance(spec, bool):
            raise ConfigError(f"boolean is not a valid distribution spec: {spec!r}")
        if isinstance(spec, (int, float)):
            return Constant(float(spec))
        if not isinstance(spec, Mapping):
            raise ConfigError(f"cannot build a distribution from {spec!r}")
        spec = dict(spec)
        kind = spec.pop("dist", None)
        if kind is None:
            raise ConfigError(f"distribution spec missing 'dist' key: {spec!r}")
        try:
            cls = _REGISTRY[kind]
        except KeyError:
            raise ConfigError(
                f"unknown distribution {kind!r}; known: {sorted(_REGISTRY)}"
            ) from None
        try:
            return cls(**spec)
        except TypeError as exc:
            raise ConfigError(f"bad parameters for {kind!r} distribution: {exc}") from exc

    def __repr__(self) -> str:
        params = ", ".join(
            f"{k}={v!r}" for k, v in self.to_spec().items() if k != "dist"
        )
        return f"{type(self).__name__}({params})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Distribution):
            return NotImplemented
        return self.to_spec() == other.to_spec()

    def __hash__(self) -> int:
        return hash(tuple(sorted(self.to_spec().items(), key=lambda kv: kv[0])))


class Constant(Distribution):
    """A degenerate distribution: always the same value."""

    kind = "constant"

    def __init__(self, value: float) -> None:
        self.value = float(value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def mean(self) -> float:
        return self.value

    def to_spec(self) -> dict[str, Any]:
        return {"dist": "constant", "value": self.value}


class Discrete(Distribution):
    """A discrete PDF over explicit values with optional weights."""

    kind = "discrete"

    def __init__(
        self, values: Sequence[float], weights: Optional[Sequence[float]] = None
    ) -> None:
        if not values:
            raise ConfigError("discrete distribution needs at least one value")
        self.values = [float(v) for v in values]
        if weights is None:
            weights = [1.0] * len(self.values)
        if len(weights) != len(self.values):
            raise ConfigError(
                f"weights length {len(weights)} != values length {len(self.values)}"
            )
        total = float(sum(weights))
        if total <= 0 or any(w < 0 for w in weights):
            raise ConfigError("discrete weights must be non-negative with positive sum")
        self.weights = [float(w) / total for w in weights]

    def sample(self, rng: np.random.Generator) -> float:
        idx = rng.choice(len(self.values), p=self.weights)
        return self.values[int(idx)]

    def mean(self) -> float:
        return float(sum(v * w for v, w in zip(self.values, self.weights)))

    def to_spec(self) -> dict[str, Any]:
        return {"dist": "discrete", "values": self.values, "weights": self.weights}


class Uniform(Distribution):
    """Continuous uniform on ``[low, high]``."""

    kind = "uniform"

    def __init__(self, low: float, high: float) -> None:
        if high < low:
            raise ConfigError(f"uniform needs low <= high, got [{low}, {high}]")
        self.low = float(low)
        self.high = float(high)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)

    def to_spec(self) -> dict[str, Any]:
        return {"dist": "uniform", "low": self.low, "high": self.high}


class Normal(Distribution):
    """Gaussian, optionally truncated below at ``min`` (by clipping).

    Clipping (rather than rejection) keeps sampling O(1); for the small
    ``std/mean`` ratios used to emulate iteration jitter the induced bias is
    negligible, and the paper itself does not try to match distributions
    closely (§4.1.1).
    """

    kind = "normal"

    def __init__(self, mean: float, std: float, min: Optional[float] = None) -> None:
        if std < 0:
            raise ConfigError(f"normal std must be >= 0, got {std}")
        self._mean = float(mean)
        self.std = float(std)
        self.min = None if min is None else float(min)

    def sample(self, rng: np.random.Generator) -> float:
        x = float(rng.normal(self._mean, self.std))
        if self.min is not None:
            x = max(x, self.min)
        return x

    def mean(self) -> float:
        return self._mean

    def to_spec(self) -> dict[str, Any]:
        spec: dict[str, Any] = {"dist": "normal", "mean": self._mean, "std": self.std}
        if self.min is not None:
            spec["min"] = self.min
        return spec


class LogNormal(Distribution):
    """Log-normal parameterised by its *arithmetic* mean and log-space sigma.

    This matches how one calibrates from measured mean iteration times: the
    underlying mu is solved so that ``E[X] = mean``.
    """

    kind = "lognormal"

    def __init__(self, mean: float, sigma: float) -> None:
        if mean <= 0:
            raise ConfigError(f"lognormal mean must be > 0, got {mean}")
        if sigma < 0:
            raise ConfigError(f"lognormal sigma must be >= 0, got {sigma}")
        self._mean = float(mean)
        self.sigma = float(sigma)
        self._mu = math.log(self._mean) - 0.5 * self.sigma**2

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self._mu, self.sigma))

    def mean(self) -> float:
        return self._mean

    def to_spec(self) -> dict[str, Any]:
        return {"dist": "lognormal", "mean": self._mean, "sigma": self.sigma}


class Exponential(Distribution):
    """Shifted exponential: ``shift + Exp(scale)``."""

    kind = "exponential"

    def __init__(self, scale: float, shift: float = 0.0) -> None:
        if scale <= 0:
            raise ConfigError(f"exponential scale must be > 0, got {scale}")
        self.scale = float(scale)
        self.shift = float(shift)

    def sample(self, rng: np.random.Generator) -> float:
        return self.shift + float(rng.exponential(self.scale))

    def mean(self) -> float:
        return self.shift + self.scale

    def to_spec(self) -> dict[str, Any]:
        return {"dist": "exponential", "scale": self.scale, "shift": self.shift}


_REGISTRY: dict[str, type[Distribution]] = {
    cls.kind: cls
    for cls in (Constant, Discrete, Uniform, Normal, LogNormal, Exponential)
}
