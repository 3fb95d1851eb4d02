"""The Simulation component: emulates a scientific solver (paper §3.3).

A Simulation is a configured sequence of kernels (Listing 2); each call to
:meth:`run` executes the configured number of iterations, pacing each
kernel by its ``run_time``/``run_count`` (possibly stochastic) and
recording one COMPUTE event per iteration. Data staging happens through
the inherited ``stage_*`` API — either from user code between ``run``
calls (Listing 1 style) or via the periodic helpers used by the pattern
builders.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional, Union

import numpy as np

from repro.config.loader import load_simulation_config
from repro.config.schema import KernelConfig, SimulationConfig
from repro.core.component import Component
from repro.errors import ConfigError
from repro.kernels.base import KernelContext, KernelExecutor, make_kernel
from repro.kernels.device import device_from_name
from repro.telemetry.events import EventKind
from repro.telemetry.timer import Stopwatch


class Simulation(Component):
    """Emulates the simulation side of a coupled workflow."""

    kind = "simulation"

    def __init__(
        self,
        name: str,
        config: Union[SimulationConfig, Mapping[str, Any], str, None] = None,
        server_info: Optional[Mapping[str, Any]] = None,
        **component_kwargs,
    ) -> None:
        with Stopwatch(component_kwargs.get("clock") or _default_clock()) as sw:
            super().__init__(name, server_info=server_info, **component_kwargs)
            if config is None:
                config = SimulationConfig()
            elif not isinstance(config, SimulationConfig):
                config = load_simulation_config(config)
            self.config = config
            self.rng = np.random.default_rng(
                np.random.SeedSequence([config.seed, 0])  # rank 0
            )
            self._executors: list[KernelExecutor] = []
            for kernel_config in config.kernels:
                self._add_executor(kernel_config)
            self.iterations_run = 0
        self.record_init(sw.start, sw.elapsed)

    # -- kernel management ------------------------------------------------------
    def _add_executor(self, kernel_config: KernelConfig) -> None:
        ctx = KernelContext(
            device=device_from_name(kernel_config.device),
            rng=self.rng,
            workdir=self.workdir,
        )
        kernel = make_kernel(kernel_config, ctx)
        self._executors.append(KernelExecutor(kernel, rng=self.rng, clock=self.clock))

    def add_kernel(
        self,
        kernel: Union[str, KernelConfig, Mapping[str, Any]],
        **overrides: Any,
    ) -> None:
        """Append a kernel: by name (Listing 1 style), config, or dict."""
        if isinstance(kernel, str):
            kernel_config = KernelConfig.from_dict({"mini_app_kernel": kernel, **overrides})
        elif isinstance(kernel, KernelConfig):
            if overrides:
                raise ConfigError("cannot pass overrides with a KernelConfig")
            kernel_config = kernel
        else:
            kernel_config = KernelConfig.from_dict({**dict(kernel), **overrides})
        self.config.kernels.append(kernel_config)
        self._add_executor(kernel_config)

    @property
    def kernels(self) -> list[KernelConfig]:
        return list(self.config.kernels)

    # -- execution -----------------------------------------------------------------
    def run_iteration(self) -> float:
        """One simulation iteration: every kernel once, per its control."""
        start = self.clock.now()
        for executor in self._executors:
            executor.run_iteration()
        duration = self.clock.now() - start
        self.event_log.add(
            component=self.name,
            kind=EventKind.COMPUTE,
            start=start,
            duration=duration,
        )
        self.iterations_run += 1
        return duration

    def run(self, iterations: Optional[int] = None) -> float:
        """Run ``iterations`` (default: config.iterations); returns elapsed."""
        count = self.config.iterations if iterations is None else iterations
        if count < 0:
            raise ConfigError(f"iterations must be >= 0, got {count}")
        start = self.clock.now()
        for _ in range(count):
            self.run_iteration()
        return self.clock.now() - start

    def teardown(self) -> None:
        for executor in self._executors:
            executor.kernel.teardown()
        self.close()


def _default_clock():
    from repro.telemetry.timer import RealClock

    return RealClock()
