"""Package-level tests: public API surface and lazy imports."""

import importlib
import os
import pkgutil
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS

#: ``repro`` and every package under it.
PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.") if info.ispkg
)


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


def test_lazy_top_level_api():
    import repro

    # The paper's Listing 1 imports, via the package root.
    assert repro.Workflow.__name__ == "Workflow"
    assert repro.Simulation.__name__ == "Simulation"
    assert repro.AI.__name__ == "AI"
    assert repro.ServerManager.__name__ == "ServerManager"
    assert repro.DataStore.__name__ == "DataStore"


def test_unknown_top_level_attribute():
    import repro

    with pytest.raises(AttributeError):
        _ = repro.NotAThing


ALL_MODULES = [
    "repro.analysis",
    "repro.cli",
    "repro.cluster",
    "repro.config",
    "repro.core",
    "repro.des",
    "repro.errors",
    "repro.experiments",
    "repro.kernels",
    "repro.ml",
    "repro.telemetry",
    "repro.transport",
    "repro.workloads",
]


@pytest.mark.parametrize("module", ALL_MODULES)
def test_every_subpackage_imports(module):
    importlib.import_module(module)


@pytest.mark.parametrize("module", PACKAGES)
def test_all_exports_resolve(module):
    # A package resolves its exports on first access: a mistyped
    # {name: module} entry only shows when the name is looked up.
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", []):
        assert hasattr(mod, name), f"{module}.__all__ lists missing {name!r}"


@pytest.mark.parametrize("module", PACKAGES)
def test_unknown_export_raises_attribute_error_naming_the_module(module):
    mod = importlib.import_module(module)
    with pytest.raises(AttributeError, match=f"module '{module}' has no attribute 'NotAThing'"):
        _ = mod.NotAThing


@pytest.mark.parametrize("module", PACKAGES)
def test_star_import_binds_every_export(module):
    namespace = {}
    exec(f"from {module} import *", namespace)
    assert set(getattr(importlib.import_module(module), "__all__", [])) <= set(namespace)


# -- import hygiene: a simulated paper run loads only what it runs ----------

#: Modules (and packages, with everything under them) that no simulated
#: paper cell uses: the networkx fabric, the SimAI-Bench real-mode core,
#: the real transports and their servers, the TCP chaos relay and the
#: distributed sweep.
OFF_THE_PAPER_PATH = (
    "networkx",
    "repro.cluster.network",
    "repro.cluster.topology",
    "repro.core",
    "repro.ml",
    "repro.kernels",
    "repro.faults.netproxy",
    "repro.transport.redis_backend",
    "repro.transport.dragon_backend",
    "repro.transport.server",
    "repro.sweep.dist",
)
DRIVERS = {
    f"repro.experiments.{module}"
    for module in (*ALL_EXPERIMENTS.values(), *EXTENSION_EXPERIMENTS.values())
}


def _modules_after(code, tmp_path):
    """The ``sys.modules`` names a fresh interpreter holds after ``code``."""
    out = tmp_path / "modules.txt"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    script = f"{code}\nimport sys\nopen({str(out)!r}, 'w').write('\\n'.join(sys.modules))\n"
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return set(out.read_text().split())


def _off_path(loaded):
    return sorted(
        m for m in loaded
        if any(m == bad or m.startswith(bad + ".") for bad in OFF_THE_PAPER_PATH)
    )


def test_paper_cells_load_no_fabric_real_backend_or_other_driver(tmp_path):
    loaded = _modules_after(
        "from repro.experiments import fig3_throughput, fig6_scaling\n"
        "fig6_scaling.sweep_point(backend='filesystem', scale=128, nbytes=4e6, iterations=2)\n"
        "fig3_throughput.sweep_point(backend='redis', nbytes=4e6, scale=8, iterations=2)",
        tmp_path,
    )
    assert _off_path(loaded) == []
    # The machine model a cell charges is the Lustre spec, nothing more.
    assert sorted(m for m in loaded if m.startswith("repro.cluster")) == [
        "repro.cluster", "repro.cluster.filesystem"
    ]
    ran = {"repro.experiments.fig3_throughput", "repro.experiments.fig6_scaling"}
    assert sorted(loaded & DRIVERS - ran) == []


def test_the_drivers_do_not_load_the_claims_table(tmp_path):
    code = "import repro.experiments.common\nfrom repro.experiments import fig3_throughput, fig6_scaling"
    assert "repro.experiments.claims" not in _modules_after(code, tmp_path)


def test_repro_sweep_fig5_loads_no_other_driver(tmp_path):
    loaded = _modules_after(
        "import runpy, sys\n"
        "sys.argv = ['repro', 'sweep', 'fig5']\n"
        "try:\n"
        "    runpy.run_module('repro', run_name='__main__')\n"
        "except SystemExit as exit:\n"
        "    assert exit.code == 0, exit.code",
        tmp_path,
    )
    assert sorted(loaded & DRIVERS) == ["repro.experiments.fig5_twonode"]


# -- import hygiene: the sweep service loads its control plane alone -------

#: What ``repro sweep --service`` never calls: numpy, the staging data
#: path (serializer, file store, RESP client, config schema), trace
#: export, the worker, the ``--watch`` console and the bench code.
OFF_THE_CONTROL_PLANE = (
    "numpy",
    "repro.transport.serializer",
    "repro.transport.kvfile",
    "repro.transport.redis_backend",
    "repro.transport.base",
    "repro.config",
    "repro.telemetry.events",
    "repro.telemetry.chrome_trace",
    "repro.sweep.dist.worker",
    "repro.sweep.dist.watch",
    "repro.benchreport",
)


def _off_control_plane(loaded):
    return sorted(
        m for m in loaded
        if any(m == bad or m.startswith(bad + ".") for bad in OFF_THE_CONTROL_PLANE)
    )


def test_service_and_loadgen_modules_load_only_the_control_plane(tmp_path):
    # The service imports loadgen to unpickle its points.
    loaded = _modules_after("import repro.sweep.dist.service, repro.sweep.dist.loadgen", tmp_path)
    assert _off_control_plane(loaded) == []


def test_service_child_serving_a_loadgen_grid_imports_only_the_control_plane(tmp_path):
    from repro.sweep.dist.loadgen import tenant_grid
    from repro.sweep.dist.protocol import DRAINED, Assignment, dump_result
    from repro.sweep.dist.service import ServiceClient
    from repro.transport.redis_backend import MiniRedisConnection

    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
    log = tmp_path / "service.stderr"
    with open(log, "wb") as err:
        child = subprocess.Popen(
            [sys.executable, "-X", "importtime", "-m", "repro", "sweep", "--service",
             "127.0.0.1:0", "--store", str(tmp_path / "store.sqlite")],
            env=env, stdout=subprocess.DEVNULL, stderr=err,
        )
    try:
        deadline = time.monotonic() + 60
        while "sweep service on " not in log.read_text(errors="replace"):
            assert child.poll() is None and time.monotonic() < deadline, log.read_text()
            time.sleep(0.02)
        address = log.read_text().split("sweep service on ", 1)[1].split()[0]
        with ServiceClient(address) as client:
            grid = client.submit("budget", tenant_grid(0, 0, 0, 3), capture=False)["grid"]
            worker = MiniRedisConnection(*address.rsplit(":", 1), timeout=30.0)
            try:
                worker.command("HELLO", "budget-worker", "{}")
                while (reply := worker.command("CLAIM", "budget-worker")) != DRAINED:
                    assignment = Assignment.from_bytes(reply)
                    value = dump_result(assignment.point.call(), None)
                    assert worker.command(
                        "DONE", "budget-worker", str(assignment.index), grid, value
                    ) == "OK"
            finally:
                worker.close()
            assert client.results(grid)["state"] == "done"
    finally:
        child.send_signal(signal.SIGTERM)
        child.wait(timeout=30)
    imported = {
        line.split("|")[-1].strip()
        for line in log.read_text().splitlines()
        if line.startswith("import time:")
    }
    assert "repro.sweep.dist.loadgen" in imported  # the points were unpickled
    assert _off_control_plane(imported) == []


def test_exception_hierarchy_rooted():
    from repro import errors

    for name in dir(errors):
        obj = getattr(errors, name)
        if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__ == "repro.errors":
            assert issubclass(obj, errors.ReproError) or obj is errors.ReproError
