"""Collective-communication kernels from Table 1.

A mini-app component runs as one rank, so both kernels have size-1
semantics: the all-reduce and the all-gather of one rank's array are
that array.
"""

from __future__ import annotations

from repro.kernels.base import Kernel, KernelResult, register_kernel


def _array_size(data_size: tuple[int, ...]) -> int:
    n = 1
    for d in data_size:
        n *= int(d)
    return n


class _CollectiveKernel(Kernel):
    """One rank's collective: it moves its own array."""

    category = "collective"

    def setup(self) -> None:
        self.x = self.ctx.rng.random(_array_size(self.data_size))

    def run_once(self) -> KernelResult:
        return KernelResult(bytes_processed=float(self.x.nbytes), flops=0.0)


@register_kernel
class AllReduce(_CollectiveKernel):
    """Performs an all-reduce (sum) over the configured array."""

    name = "AllReduce"


@register_kernel
class AllGather(_CollectiveKernel):
    """Performs an all-gather of the configured array."""

    name = "AllGather"
