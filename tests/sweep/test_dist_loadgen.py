"""Loadgen: seeded grid determinism, bookkeeping invariants, and a
small flood against a real quota-limited service."""

import json
import os
import subprocess
import sys

from repro.sweep.dist.admission import TenantQuota
from repro.sweep.dist.loadgen import (
    LoadSpec,
    grid_expected,
    loadgen_point,
    main,
    run_load,
    tenant_grid,
)
from repro.sweep.dist.protocol import grid_signature, load_result
from repro.sweep.dist.service import SweepService


class TestDeterminism:
    def test_same_seed_same_grid(self):
        a = tenant_grid(7, tenant=2, grid_index=3, n_points=5)
        b = tenant_grid(7, tenant=2, grid_index=3, n_points=5)
        assert grid_signature(a) == grid_signature(b)
        assert [p.kwargs for _, p in a] == [p.kwargs for _, p in b]

    def test_distinct_coordinates_distinct_grids(self):
        base = grid_signature(tenant_grid(7, 0, 0, 4))
        assert grid_signature(tenant_grid(8, 0, 0, 4)) != base  # seed
        assert grid_signature(tenant_grid(7, 1, 0, 4)) != base  # tenant
        assert grid_signature(tenant_grid(7, 0, 1, 4)) != base  # grid index

    def test_expected_results_computable_offline(self):
        points = tenant_grid(7, 0, 0, 4)
        expected = grid_expected(points)
        assert set(expected) == {i for i, _ in points}
        for i, point in points:
            value, snapshot = load_result(expected[i])
            assert value == loadgen_point(**dict(point.kwargs))
            assert snapshot is None


class TestRunLoad:
    def test_flood_against_tight_quota(self, tmp_path):
        """A 5x-capacity flood is shed with hints, never an error."""
        service = SweepService(
            tmp_path / "store.sqlite",
            host="127.0.0.1",
            port=0,
            quota=TenantQuota(max_live_jobs=1),
            busy_retry_s=0.05,
        )
        service.start()
        try:
            spec = LoadSpec(
                tenants=2,
                grids_per_tenant=3,
                points_per_grid=2,
                grid_budget_s=0.3,
                duration_s=5.0,
                seed=11,
            )
            stats = run_load(f"127.0.0.1:{service.port}", spec)
        finally:
            service.stop()
        submits = stats["submits"]
        # Each tenant's first grid is admitted; the rest hit the
        # one-live-job quota and are refused with retry hints.
        assert submits["admitted"] == 2
        assert submits["refused"] > 0
        assert submits["fatal"] == 0 and stats["errors"] == []
        assert submits["attempted"] == (
            submits["admitted"] + submits["refused"]
        )
        assert stats["refusal_reasons"] == {
            "tenant-live-jobs": submits["refused"]
        }
        hints = stats["retry_hints"]
        assert hints["count"] == submits["refused"]
        assert 0.025 <= hints["min"] <= hints["max"] < 0.075
        # Every admitted signature is recomputable offline.
        for signature in stats["admitted_grids"]:
            tenant, grid = _coords(stats["admitted_grids"][signature])
            points = tenant_grid(11, tenant, grid, spec.points_per_grid)
            assert grid_signature(points) == signature

    def test_unthrottled_run_admits_everything(self, tmp_path):
        service = SweepService(tmp_path / "store.sqlite", host="127.0.0.1", port=0)
        service.start()
        try:
            spec = LoadSpec(
                tenants=2, grids_per_tenant=2, points_per_grid=2,
                duration_s=10.0, seed=3,
            )
            stats = run_load(f"127.0.0.1:{service.port}", spec)
        finally:
            service.stop()
        assert stats["submits"]["admitted"] == 4
        assert stats["submits"]["refused"] == 0
        assert len(stats["admitted_grids"]) == 4

    def test_half_open_counted_and_closed(self, tmp_path):
        service = SweepService(
            tmp_path / "store.sqlite", host="127.0.0.1", port=0,
            idle_timeout=0.3,
        )
        service.start()
        try:
            spec = LoadSpec(
                tenants=0, grids_per_tenant=0, half_open=2,
                duration_s=5.0, seed=5,
            )
            stats = run_load(f"127.0.0.1:{service.port}", spec)
            assert stats["half_open"]["connects"] == 2
            # The idle deadline reclaims both half-open sockets.
            assert stats["half_open"]["closed_by_server"] == 2
            assert service.idle_disconnects >= 2
        finally:
            service.stop()

    def test_main_writes_stats_file(self, tmp_path):
        service = SweepService(tmp_path / "store.sqlite", host="127.0.0.1", port=0)
        service.start()
        out = tmp_path / "stats.json"
        try:
            code = main([
                f"127.0.0.1:{service.port}",
                "--tenants", "1", "--grids", "1", "--points", "2",
                "--duration", "10", "--seed", "2", "--out", str(out),
            ])
        finally:
            service.stop()
        assert code == 0
        stats = json.loads(out.read_text())
        assert stats["submits"]["admitted"] == 1
        assert stats["spec"]["seed"] == 2


def _coords(job_name: str) -> tuple[int, int]:
    """Invert the loadgen's ``flood-t<tenant>-g<grid>`` naming."""
    tenant, grid = job_name.removeprefix("flood-t").split("-g")
    return int(tenant), int(grid)


def test_package_import_leaves_loadgen_unloaded():
    # `import repro.sweep.dist` loads no submodule; naming SweepService
    # loads the service, not the load generator (a tool run as
    # `python -m repro.sweep.dist.loadgen`), the worker or the console.
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    code = (
        "import sys, repro.sweep.dist\n"
        "for name in ('service', 'loadgen'):\n"
        "    assert 'repro.sweep.dist.' + name not in sys.modules, name\n"
        "from repro.sweep.dist import SweepService\n"
        "assert 'repro.sweep.dist.service' in sys.modules\n"
        "for name in ('loadgen', 'worker', 'watch'):\n"
        "    assert 'repro.sweep.dist.' + name not in sys.modules, name\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
