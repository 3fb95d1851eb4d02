"""Kernel base class, registry, and execution control.

A kernel is a small, self-contained operation (Table 1 of the paper). The
registry makes the set extensible: third parties call
:func:`register_kernel` and reference their kernel by name in a
configuration, exactly like the built-ins.

Execution control implements the paper's §3.3 semantics:

* ``run_count`` — run the operation that many times per iteration;
* ``run_time`` — repeat the operation until the (sampled) wall-clock
  budget is spent, then sleep off the remainder so the iteration duration
  closely matches the requested value (this is why the mini-app's
  iteration-time std in Table 3 is tiny compared to the original's).

Both parameters may be stochastic (:mod:`repro.config.distributions`),
sampled fresh every iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Type

import numpy as np

from repro.config.schema import KernelConfig
from repro.errors import KernelError
from repro.kernels.device import Device, device_from_name
from repro.telemetry.timer import Clock, RealClock


@dataclass
class KernelContext:
    """Everything a kernel may need at setup/run time."""

    device: Device = field(default_factory=Device)
    rng: np.random.Generator = field(default_factory=lambda: np.random.default_rng(0))
    workdir: Optional[Path] = None

    def require_workdir(self, kernel: str) -> Path:
        if self.workdir is None:
            raise KernelError(f"kernel {kernel!r} needs a workdir (IO kernel)")
        self.workdir.mkdir(parents=True, exist_ok=True)
        return self.workdir


@dataclass(frozen=True)
class KernelResult:
    """What one ``run_once`` call did (for roofline-style accounting)."""

    bytes_processed: float = 0.0
    flops: float = 0.0


class Kernel:
    """Base class for all mini-app kernels."""

    #: registry name; subclasses must set it
    name: str = ""
    #: Table 1 category: compute | io | collective | copy
    category: str = "compute"

    def __init__(self, config: KernelConfig, ctx: KernelContext) -> None:
        self.config = config
        self.ctx = ctx
        self.setup()

    # -- subclass interface -----------------------------------------------------
    def setup(self) -> None:
        """Allocate arrays / open files. Called once at construction."""

    def run_once(self) -> KernelResult:
        """Execute the operation once."""
        raise NotImplementedError

    def teardown(self) -> None:
        """Release any resources (files, buffers)."""

    # -- helpers ------------------------------------------------------------------
    @property
    def data_size(self) -> tuple[int, ...]:
        return self.config.data_size

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} size={self.data_size}>"


_REGISTRY: dict[str, Type[Kernel]] = {}


def register_kernel(cls: Type[Kernel]) -> Type[Kernel]:
    """Class decorator adding a kernel to the global registry."""
    if not cls.name:
        raise KernelError(f"{cls.__name__} must define a non-empty 'name'")
    if cls.name in _REGISTRY and _REGISTRY[cls.name] is not cls:
        raise KernelError(f"kernel name {cls.name!r} already registered")
    _REGISTRY[cls.name] = cls
    return cls


def kernel_class(name: str) -> Type[Kernel]:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KernelError(
            f"unknown kernel {name!r}; known kernels: {sorted(_REGISTRY)}"
        ) from None


def list_kernels(category: Optional[str] = None) -> list[str]:
    """Registered kernel names, optionally filtered by category."""
    return sorted(
        name
        for name, cls in _REGISTRY.items()
        if category is None or cls.category == category
    )


def make_kernel(config: KernelConfig, ctx: Optional[KernelContext] = None) -> Kernel:
    """Instantiate the kernel a config names.

    When ``ctx`` is omitted a fresh context is created from the config's
    device string.
    """
    if ctx is None:
        ctx = KernelContext(device=device_from_name(config.device))
    return kernel_class(config.mini_app_kernel)(config, ctx)


class KernelExecutor:
    """Drives a kernel per the config's run_time / run_count control."""

    def __init__(
        self,
        kernel: Kernel,
        rng: Optional[np.random.Generator] = None,
        clock: Optional[Clock] = None,
        min_reps_for_run_time: int = 1,
    ) -> None:
        self.kernel = kernel
        self.rng = rng if rng is not None else kernel.ctx.rng
        self.clock = clock or RealClock()
        self.min_reps_for_run_time = min_reps_for_run_time
        self.total_runs = 0

    def run_iteration(self) -> float:
        """Execute one iteration; returns its duration on ``clock``."""
        config = self.kernel.config
        start = self.clock.now()
        if config.run_time is not None:
            budget = max(0.0, config.run_time.sample(self.rng))
            reps = 0
            while True:
                self.kernel.run_once()
                reps += 1
                self.total_runs += 1
                elapsed = self.clock.now() - start
                if elapsed >= budget and reps >= self.min_reps_for_run_time:
                    break
                if elapsed < budget and self._would_overshoot(elapsed, budget, reps):
                    # Pad the remainder with sleep for a tight duration match.
                    self.clock.sleep(budget - elapsed)
                    break
        else:
            assert config.run_count is not None  # guaranteed by KernelConfig
            count = max(0, int(round(config.run_count.sample(self.rng))))
            for _ in range(count):
                self.kernel.run_once()
                self.total_runs += 1
        return self.clock.now() - start

    def _would_overshoot(self, elapsed: float, budget: float, reps: int) -> bool:
        """True when one more rep would overshoot the budget by more than the
        sleep-padding error."""
        if reps < self.min_reps_for_run_time:
            return False
        per_rep = elapsed / reps
        return elapsed + per_rep > budget
