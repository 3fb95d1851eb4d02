"""Tests for the extension experiments (future-work backends, inference)."""

import pytest

from repro.experiments import EXTENSION_EXPERIMENTS
from repro.transport.models import (
    DaosBackendModel,
    TransportOpContext,
)


def test_extension_registry():
    assert set(EXTENSION_EXPERIMENTS) == {
        "ext_inference",
        "ext_futurework",
        "ext_faults",
    }


# ---------------------------------------------------------------------------
# DAOS model unit behaviour
# ---------------------------------------------------------------------------


def test_daos_no_metadata_collapse():
    """DAOS's distributed metadata: per-op latency independent of client
    count (unlike Lustre's MDS queue)."""
    m = DaosBackendModel()
    few = TransportOpContext(local=True, concurrent_clients=96)
    many = TransportOpContext(local=True, concurrent_clients=6144)
    assert m.poll_time(many) == m.poll_time(few)
    # Only the shared data fabric term grows, and boundedly:
    assert m.write_time(1e6, many) < 20 * m.write_time(1e6, few)


def test_daos_aggregate_bandwidth_shared():
    m = DaosBackendModel()
    few = TransportOpContext(local=True, concurrent_clients=8)
    many = TransportOpContext(local=True, concurrent_clients=6144)
    assert m.write_time(32e6, many) > m.write_time(32e6, few)


def test_daos_beats_lustre_at_scale():
    from repro.transport.models import FileSystemBackendModel

    ctx = TransportOpContext(local=True, concurrent_clients=512 * 12)
    daos = DaosBackendModel()
    lustre = FileSystemBackendModel()
    for nbytes in (0.4e6, 4e6, 32e6):
        assert daos.write_time(nbytes, ctx) < lustre.write_time(nbytes, ctx)


# ---------------------------------------------------------------------------
# ext_futurework driver
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def futurework(driver_result):
    return driver_result("ext_futurework")


def test_futurework_daos_avoids_p1_collapse(futurework):
    fs = futurework.p1_write_512["filesystem"]
    daos = futurework.p1_write_512["daos"]
    for i in range(len(futurework.sizes_mb)):
        assert daos[i] > 1.5 * fs[i]


def test_futurework_streaming_competitive_p1(futurework):
    nodelocal = futurework.p1_write_512["node-local"]
    streaming = futurework.p1_write_512["streaming"]
    for i in range(len(futurework.sizes_mb)):
        assert streaming[i] > 0.5 * nodelocal[i]


def test_futurework_p2_daos_wins(futurework):
    for i in range(len(futurework.sizes_mb)):
        daos = futurework.p2_runtime_128["daos"][i]
        assert daos <= futurework.p2_runtime_128["filesystem"][i]
        assert daos <= futurework.p2_runtime_128["dragon"][i]


def test_futurework_p2_streaming_beats_dragon(futurework):
    for i in range(len(futurework.sizes_mb)):
        assert (
            futurework.p2_runtime_128["streaming"][i]
            < futurework.p2_runtime_128["dragon"][i]
        )


def test_futurework_render(futurework):
    text = futurework.render()
    assert "512 nodes" in text and "128 nodes" in text


def test_cli_accepts_extensions(capsys):
    from repro.cli import main

    assert main(["sweep", "ext_inference"]) == 0
    assert "round trip" in capsys.readouterr().out
