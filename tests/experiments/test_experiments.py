"""End-to-end tests of every table/figure driver.

Each test asserts the qualitative findings the paper reports for that
artifact — these are the reproduction's acceptance criteria.
"""

import inspect
import pathlib

import pytest

from repro.errors import ConfigError
from repro.experiments import ALL_EXPERIMENTS, EXTENSION_EXPERIMENTS

REGISTRY = {**ALL_EXPERIMENTS, **EXTENSION_EXPERIMENTS}
FULL_OUTPUT = pathlib.Path(__file__).parents[2] / "experiments_full_output.txt"


def test_registry_covers_every_artifact():
    assert set(ALL_EXPERIMENTS) == {
        "table1",
        "table2",
        "table3",
        "fig2",
        "fig3",
        "fig4",
        "fig5",
        "fig6",
    }


def test_table1_all_kernels_present(driver_result):
    result = driver_result("table1")
    assert result.all_present
    assert len(result.rows) == 16
    assert "MatMulSimple2D" in result.render()


def test_table2_counts_match(driver_result):
    result = driver_result("table2")
    assert result.train.original_timesteps == result.train.miniapp_timesteps
    assert result.sim.timestep_relative_error < 0.06
    assert result.sim.transport_relative_error <= 0.15
    assert result.train.transport_relative_error <= 0.15
    assert "Table 2" in result.render()


def test_table3_stats_match(driver_result):
    result = driver_result("table3")
    assert result.sim.mean_relative_error < 0.10
    assert result.train.mean_relative_error < 0.05
    # the paper's signature: original jitter large, mini-app jitter tiny
    assert result.sim.original.std > 0.3 * result.sim.original.mean
    assert result.sim.miniapp.std < 0.01 * result.sim.miniapp.mean
    assert "Table 3" in result.render()


def test_fig2_timelines_similar(driver_result):
    result = driver_result("fig2")
    assert result.sim_similarity > 0.8
    assert result.train_similarity > 0.8
    text = result.render(width=80)
    assert "--- original ---" in text
    assert "W" in text and "R" in text


@pytest.fixture(scope="module")
def fig3(driver_result):
    return driver_result("fig3")


def test_fig3_in_memory_backends_non_monotonic(fig3):
    for backend in ("node-local", "dragon", "redis"):
        thr = fig3.write[8][backend]
        peak = max(range(len(thr)), key=lambda i: thr[i])
        assert 0 < peak < len(thr) - 1, backend  # interior peak
        assert thr[-1] < thr[peak], backend


def test_fig3_filesystem_monotonic(fig3):
    for scale in (8, 512):
        thr = fig3.write[scale]["filesystem"]
        assert thr == sorted(thr), scale


def test_fig3_backend_ordering_at_8_nodes(fig3):
    for i in range(len(fig3.sizes_mb)):
        assert fig3.write[8]["node-local"][i] > fig3.write[8]["redis"][i]
        assert fig3.write[8]["dragon"][i] > fig3.write[8]["redis"][i]


def test_fig3_filesystem_collapses_at_512(fig3):
    for i in range(len(fig3.sizes_mb)):
        assert fig3.write[512]["filesystem"][i] < 0.25 * fig3.write[8]["filesystem"][i]


def test_fig3_in_memory_scale_invariant(fig3):
    for backend in ("node-local", "dragon", "redis"):
        for i in range(len(fig3.sizes_mb)):
            a, b = fig3.write[8][backend][i], fig3.write[512][backend][i]
            assert a == pytest.approx(b, rel=0.02), backend


def test_fig3_render(fig3):
    text = fig3.render()
    assert "8 nodes" in text and "512 nodes" in text


@pytest.fixture(scope="module")
def fig4(driver_result):
    return driver_result("fig4")


def test_fig4_nodelocal_32mb_about_one_iteration(fig4):
    for scale in (8, 512):
        panel = fig4.panel("node-local", scale)
        ratio = panel.transfer_to_iter_ratio(-1)  # 32 MB
        assert 0.3 <= ratio <= 3.0, scale


def test_fig4_nodelocal_scale_free(fig4):
    a = fig4.panel("node-local", 8)
    b = fig4.panel("node-local", 512)
    assert a.write_time == pytest.approx(b.write_time)


def test_fig4_filesystem_order_of_magnitude_at_512(fig4):
    at8 = fig4.panel("filesystem", 8).transfer_to_iter_ratio(-1)
    at512 = fig4.panel("filesystem", 512).transfer_to_iter_ratio(-1)
    assert 0.3 <= at8 <= 3.0
    assert at512 >= 5.0  # paper: ~an order of magnitude above one iteration


def test_fig4_render(fig4):
    assert "filesystem at 512 nodes" in fig4.render()


@pytest.fixture(scope="module")
def fig5(driver_result):
    return driver_result("fig5")


def test_fig5_redis_nonlocal_read_poor(fig5):
    for i in range(len(fig5.sizes_mb)):
        assert fig5.read["redis"][i] < 0.5 * fig5.read["dragon"][i]


def test_fig5_dragon_read_peaks_then_declines(fig5):
    thr = fig5.read["dragon"]
    peak = max(range(len(thr)), key=lambda i: thr[i])
    assert 0 < peak < len(thr) - 1
    assert thr[-1] < thr[peak]


def test_fig5_filesystem_monotonic_and_approaches_dragon(fig5):
    thr = fig5.read["filesystem"]
    assert thr == sorted(thr)
    assert thr[-1] > 0.5 * fig5.read["dragon"][-1]


def test_fig5_local_write_ordering(fig5):
    for i in range(len(fig5.sizes_mb)):
        assert fig5.write["dragon"][i] > fig5.write["redis"][i]


def test_fig5_render(fig5):
    assert "non-local read" in fig5.render()


@pytest.fixture(scope="module")
def fig6(driver_result):
    return driver_result("fig6")


def test_fig6_runtime_grows_with_size(fig6):
    for scale in (8, 128):
        for backend, series in fig6.runtime[scale].items():
            assert series == sorted(series), (scale, backend)


def test_fig6_redis_slowest(fig6):
    for scale in (8, 128):
        for i in range(len(fig6.sizes_mb)):
            assert fig6.runtime[scale]["redis"][i] >= fig6.runtime[scale]["dragon"][i]
            assert (
                fig6.runtime[scale]["redis"][i] >= fig6.runtime[scale]["filesystem"][i]
            )


def test_fig6_dragon_fs_equal_at_8_nodes(fig6):
    for i in range(len(fig6.sizes_mb)):
        d = fig6.runtime[8]["dragon"][i]
        f = fig6.runtime[8]["filesystem"][i]
        assert d == pytest.approx(f, rel=0.15)


def test_fig6_dragon_significantly_slower_below_10mb_at_128(fig6):
    for i, size in enumerate(fig6.sizes_mb):
        if size < 10:
            d = fig6.runtime[128]["dragon"][i]
            f = fig6.runtime[128]["filesystem"][i]
            assert d > 1.5 * f, size


def test_fig6_filesystem_best_overall_at_128(fig6):
    """The paper's headline Pattern-2 conclusion."""
    for i in range(len(fig6.sizes_mb)):
        f = fig6.runtime[128]["filesystem"][i]
        assert f <= fig6.runtime[128]["dragon"][i]
        assert f <= fig6.runtime[128]["redis"][i]


def test_fig6_render(fig6):
    assert "128 nodes" in fig6.render()


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_archived_output_is_what_the_driver_prints(name, driver_result):
    assert driver_result(name).render() + "\n" in FULL_OUTPUT.read_text()


def test_no_driver_takes_a_scale_parameter():
    """One scale: ``run()`` takes what selects *what* is run, never how long."""
    for name, module in REGISTRY.items():
        extra = set(inspect.signature(module.run).parameters) - {
            "backends", "rates", "seed", "sweep", "telemetry",
        }
        assert not extra, (name, extra)


def test_cli_main_runs(capsys):
    from repro.experiments.__main__ import main

    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out


def test_cli_unknown_experiment():
    from repro.experiments.__main__ import main

    with pytest.raises(ConfigError, match="unknown experiments"):
        main(["bogus"])
