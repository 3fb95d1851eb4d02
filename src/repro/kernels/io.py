"""IO kernels from Table 1.

The paper's IO kernels use HDF5; h5py is not installed here, so files are
raw little-endian float64 blocks (the access *pattern* — how the file is
shared, positioned vs streamed — is what the kernels model, not the
container format). A mini-app component runs as one rank, rank 0:

* ``WriteSingleRank`` — rank 0 writes everything to one shared file;
* ``WriteNonMPI`` / ``ReadNonMPI`` — file-per-rank independent IO;
* ``WriteWithMPI`` / ``ReadWithMPI`` — a single shared file accessed at
  the rank's offset (``os.pwrite``/``os.pread``, which is what MPI-IO
  degenerates to on one node).
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from repro.kernels.base import Kernel, KernelResult, register_kernel


def _array_size(data_size: tuple[int, ...]) -> int:
    n = 1
    for d in data_size:
        n *= int(d)
    return n


class _IOKernel(Kernel):
    """Shared setup: working array + target paths in ctx.workdir."""

    category = "io"

    def setup(self) -> None:
        self.workdir = self.ctx.require_workdir(self.name)
        n = _array_size(self.data_size)
        self.array = self.ctx.rng.random(n)

    def _per_rank_path(self) -> Path:
        return self.workdir / f"{self.config.name}_rank0.bin"

    def _shared_path(self) -> Path:
        return self.workdir / f"{self.config.name}_shared.bin"

    def teardown(self) -> None:
        for path in (self._per_rank_path(), self._shared_path()):
            try:
                path.unlink()
            except FileNotFoundError:
                pass


@register_kernel
class WriteSingleRank(_IOKernel):
    """A single process (rank 0) writes all ranks' data to one file."""

    name = "WriteSingleRank"

    def run_once(self) -> KernelResult:
        with open(self._shared_path(), "wb") as handle:
            handle.write(self.array.tobytes())
        return KernelResult(bytes_processed=float(self.array.nbytes))


@register_kernel
class WriteNonMPI(_IOKernel):
    """Each rank writes its own file independently (no MPI-IO)."""

    name = "WriteNonMPI"

    def run_once(self) -> KernelResult:
        with open(self._per_rank_path(), "wb") as handle:
            handle.write(self.array.tobytes())
        return KernelResult(bytes_processed=float(self.array.nbytes))


@register_kernel
class ReadNonMPI(_IOKernel):
    """Each rank reads its own file independently."""

    name = "ReadNonMPI"

    def setup(self) -> None:
        super().setup()
        # Make sure there is something to read.
        with open(self._per_rank_path(), "wb") as handle:
            handle.write(self.array.tobytes())

    def run_once(self) -> KernelResult:
        data = np.fromfile(self._per_rank_path(), dtype=np.float64)
        return KernelResult(bytes_processed=float(data.nbytes))


@register_kernel
class WriteWithMPI(_IOKernel):
    """Positioned write of the rank's block of one shared file."""

    name = "WriteWithMPI"

    def run_once(self) -> KernelResult:
        fd = os.open(self._shared_path(), os.O_WRONLY | os.O_CREAT)
        try:
            os.pwrite(fd, self.array.tobytes(), 0)
        finally:
            os.close(fd)
        return KernelResult(bytes_processed=float(self.array.nbytes))


@register_kernel
class ReadWithMPI(_IOKernel):
    """Positioned read of the rank's block of one shared file."""

    name = "ReadWithMPI"

    def setup(self) -> None:
        super().setup()
        with open(self._shared_path(), "wb") as handle:
            handle.write(self.array.tobytes())

    def run_once(self) -> KernelResult:
        fd = os.open(self._shared_path(), os.O_RDONLY)
        try:
            blob = os.pread(fd, self.array.nbytes, 0)
        finally:
            os.close(fd)
        data = np.frombuffer(blob, dtype=np.float64)
        return KernelResult(bytes_processed=float(data.nbytes))
