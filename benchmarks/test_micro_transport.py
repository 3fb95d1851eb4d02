"""Microbenchmarks: real transport backends moving real bytes.

Not a paper artifact per se, but the real-mode counterpart of Fig 3/5:
stage_write/stage_read costs of this machine's actual node-local, redis,
and dragon implementations at a representative 1 MB payload (the paper's
production workload moves 1.2 MB per op).
"""

import socket

import numpy as np
import pytest

from repro.transport import DataStore, ServerManager

PAYLOAD = np.random.default_rng(0).random(131072)  # 1 MiB of float64


@pytest.fixture(
    params=["node-local", "redis", "dragon"], ids=["node-local", "redis", "dragon"]
)
def store(request, tmp_path):
    config = {"backend": request.param, "n_shards": 1}
    if request.param == "node-local":
        config["path"] = str(tmp_path)
    with ServerManager("bench", config=config) as manager:
        client = DataStore("bench", server_info=manager.get_server_info())
        yield client
        client.close()


def carrier(store) -> str:
    """Which socket family carried the redis/dragon bytes ("" for files)."""
    cluster = getattr(store._client, "client", None) or getattr(store._client, "ddict", None)
    if cluster is None:
        return ""
    family = cluster._connection(0)._sock.family
    return " (unix socket)" if family == socket.AF_UNIX else " (tcp)"


def test_stage_write_1mb(benchmark, store):
    counter = iter(range(10**9))

    def op():
        store.stage_write(f"k{next(counter)}", PAYLOAD)

    benchmark(op)
    assert store.stats.write.count > 0
    print(
        f"\n{store.backend}{carrier(store)}: write {store.stats.write.throughput / 1e6:.1f} MB/s "
        f"over {store.stats.write.count} ops"
    )


def test_stage_read_1mb(benchmark, store):
    store.stage_write("hot", PAYLOAD)

    def op():
        return store.stage_read("hot")

    result = benchmark(op)
    np.testing.assert_array_equal(result, PAYLOAD)
    print(
        f"\n{store.backend}{carrier(store)}: read {store.stats.read.throughput / 1e6:.1f} MB/s "
        f"over {store.stats.read.count} ops"
    )


def test_poll_staged_data(benchmark, store):
    store.stage_write("hot", PAYLOAD)
    assert benchmark(store.poll_staged_data, "hot")
