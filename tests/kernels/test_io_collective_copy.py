"""Tests for IO, collective, and copy kernels."""

import numpy as np
import pytest

from repro.config import KernelConfig
from repro.errors import KernelError
from repro.kernels import KernelContext, device_from_name, list_kernels, make_kernel


def make(kernel, tmp_path=None, data_size=(64,), device="cpu", seed=0):
    cfg = KernelConfig(mini_app_kernel=kernel, data_size=data_size, device=device)
    ctx = KernelContext(
        device=device_from_name(device),
        rng=np.random.default_rng(seed),
        workdir=tmp_path,
    )
    return make_kernel(cfg, ctx)


# ---------------------------------------------------------------------------
# IO kernels
# ---------------------------------------------------------------------------

TABLE1_IO = ["WriteSingleRank", "WriteNonMPI", "WriteWithMPI", "ReadNonMPI", "ReadWithMPI"]


def test_all_table1_io_kernels_registered():
    registered = list_kernels(category="io")
    for name in TABLE1_IO:
        assert name in registered


def test_io_kernel_requires_workdir():
    with pytest.raises(KernelError, match="workdir"):
        make("WriteNonMPI", tmp_path=None)


def test_write_non_mpi_creates_file(tmp_path):
    k = make("WriteNonMPI", tmp_path)
    result = k.run_once()
    files = list(tmp_path.glob("*.bin"))
    assert len(files) == 1
    assert files[0].stat().st_size == 64 * 8
    assert result.bytes_processed == 64 * 8


def test_read_non_mpi_round_trip(tmp_path):
    w = make("WriteNonMPI", tmp_path)
    w.run_once()
    r = make("ReadNonMPI", tmp_path)
    result = r.run_once()
    assert result.bytes_processed == 64 * 8


def test_write_single_rank_single_process(tmp_path):
    k = make("WriteSingleRank", tmp_path)
    k.run_once()
    shared = list(tmp_path.glob("*_shared.bin"))
    assert len(shared) == 1


def test_teardown_removes_files(tmp_path):
    k = make("WriteNonMPI", tmp_path)
    k.run_once()
    k.teardown()
    assert list(tmp_path.glob("*.bin")) == []


def test_write_with_mpi_shared_file_blocks(tmp_path):
    k = make("WriteWithMPI", tmp_path, data_size=(8,), seed=3)
    k.run_once()
    k.run_once()  # a second write lands in place, it does not append
    shared = list(tmp_path.glob("*_shared.bin"))
    assert len(shared) == 1
    np.testing.assert_array_equal(np.fromfile(shared[0], dtype=np.float64), k.array)


def test_read_with_mpi_each_rank_reads_its_block(tmp_path):
    k = make("ReadWithMPI", tmp_path, data_size=(8,))
    assert k.run_once().bytes_processed == 8 * 8.0


# ---------------------------------------------------------------------------
# Collective kernels
# ---------------------------------------------------------------------------


def test_collective_kernels_registered():
    registered = list_kernels(category="collective")
    assert "AllReduce" in registered
    assert "AllGather" in registered


def test_allreduce_kernel_single_rank():
    k = make("AllReduce", data_size=(32,))
    result = k.run_once()
    assert result.bytes_processed > 0


def test_allgather_kernel_single_rank():
    k = make("AllGather", data_size=(16,))
    assert k.run_once().bytes_processed == 16 * 8


# ---------------------------------------------------------------------------
# Copy kernels
# ---------------------------------------------------------------------------


def test_copy_kernels_registered():
    registered = list_kernels(category="copy")
    assert "CopyHostToDevice" in registered
    assert "CopyDeviceToHost" in registered


def test_copy_host_to_device_tracks_bytes_and_time():
    k = make("CopyHostToDevice", data_size=(128,), device="xpu")
    k.run_once()
    k.run_once()
    assert k.ctx.device.bytes_to_device == 2 * 128 * 8
    assert k.modeled_time > 0


def test_copy_device_to_host_tracks_bytes():
    k = make("CopyDeviceToHost", data_size=(128,), device="xpu")
    k.run_once()
    assert k.ctx.device.bytes_to_host == 128 * 8


def test_copy_on_cpu_is_free():
    k = make("CopyHostToDevice", data_size=(128,), device="cpu")
    k.run_once()
    assert k.modeled_time == 0.0
