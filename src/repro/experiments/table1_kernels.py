"""Table 1 — the kernel inventory of the Kernels module.

Regenerates the paper's kernel list from the live registry and verifies
every kernel actually runs on both devices.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.config.schema import KernelConfig
from repro.kernels import KernelContext, device_from_name, kernel_class, list_kernels, make_kernel

#: Table 1 rows: (category, kernel, description)
PAPER_TABLE1 = [
    ("Compute", "MatMulSimple2D", "Simple 2D matrix multiplication"),
    ("Compute", "MatMulGeneral", "General matrix multiplication (GEMM)"),
    ("Compute", "FFT", "Fast Fourier Transform"),
    ("Compute", "AXPY", "Scalar-vector multiplication and addition (ax + y)"),
    ("Compute", "InplaceCompute", "Performs a computation on data in-place (f(x))"),
    ("Compute", "GenerateRandomNumber", "Generates an array of random numbers"),
    ("Compute", "ScatterAdd", "Scatters and adds values to an array"),
    ("IO", "WriteSingleRank", "A single process writes data to a file"),
    ("IO", "WriteNonMPI", "Writes data to a file without MPI-IO"),
    ("IO", "WriteWithMPI", "Writes data using MPI-IO collectives"),
    ("IO", "ReadNonMPI", "Reads data from a file without MPI-IO"),
    ("IO", "ReadWithMPI", "Reads data using MPI-IO collectives"),
    ("Collectives", "AllReduce", "Performs an all-reduce operation"),
    ("Collectives", "AllGather", "Performs an all-gather operation"),
    ("Copy", "CopyHostToDevice", "Copies data from CPU to GPU memory"),
    ("Copy", "CopyDeviceToHost", "Copies data from GPU to CPU memory"),
]

_CATEGORY_MAP = {"Compute": "compute", "IO": "io", "Collectives": "collective", "Copy": "copy"}


@dataclass
class Table1Result:
    rows: list[tuple[str, str, str, bool]]  # category, kernel, description, runs

    @property
    def all_present(self) -> bool:
        return all(ok for *_, ok in self.rows)

    def render(self) -> str:
        return format_table(
            ["Category", "Kernel", "Description", "Implemented+Runs"],
            self.rows,
            title="Table 1: kernels provided by the Kernel module",
        )


def _kernel_runs(name: str, tmpdir) -> bool:
    needs_dir = _CATEGORY_MAP.get(
        next(cat for cat, k, _ in PAPER_TABLE1 if k == name), "compute"
    ) == "io"
    for device in ("cpu", "xpu"):
        cfg = KernelConfig(mini_app_kernel=name, data_size=(8, 8), device=device)
        ctx = KernelContext(
            device=device_from_name(device),
            workdir=tmpdir if needs_dir else None,
        )
        kernel = make_kernel(cfg, ctx)
        try:
            kernel.run_once()
        finally:
            kernel.teardown()
    return True


def sweep_point(category: str, name: str) -> bool:
    """One grid cell: is the kernel registered, and does it run on both devices?"""
    import tempfile
    from pathlib import Path

    if name not in list_kernels(category=_CATEGORY_MAP[category]):
        return False
    with tempfile.TemporaryDirectory() as tmp:
        return _kernel_runs(name, Path(tmp))


def run(sweep=None) -> Table1Result:
    from repro.experiments.common import sweep_values

    cells = [
        {"category": category, "name": name}
        for category, name, _ in PAPER_TABLE1
    ]
    values = sweep_values(sweep_point, cells, sweep=sweep)
    rows = [
        (category, name, description, runs)
        for (category, name, description), runs in zip(PAPER_TABLE1, values)
    ]
    for _, name, _ in PAPER_TABLE1:
        assert kernel_class(name)  # raises if unregistered
    return Table1Result(rows=rows)


if __name__ == "__main__":
    print(run().render())
