"""The staging data path's copy budget, held as a guard.

A staged array leaves the client as a view of its own memory and lands
once, in the memory that becomes the result. ``tracemalloc`` sees every
payload-sized buffer either side allocates (the servers run in-process),
so the budget is stated in multiples of the payload: nothing on a write
beyond the value the server keeps, nothing on a read beyond the array
handed back. Before the copy-free path the same measurements read
2.0/4.1/3.0x (write) and 4.0/5.0/4.0x (read) for kvfile/redis/dragon.
"""

import numpy as np
import pytest

from repro.transport import DataStore, ServerManager
from tests.transport.memory import peak_bytes

BACKENDS = ["node-local", "redis", "dragon"]
#: Payload multiples an in-memory server retains per stored value.
RETAINED = {"node-local": 0.0, "redis": 1.0, "dragon": 1.0}
PAYLOAD = np.random.default_rng(14).random(8 * (1 << 20) // 8)  # 8 MiB float64


@pytest.fixture(params=BACKENDS)
def store(request, tmp_path):
    config = {"backend": request.param, "n_shards": 2}
    if request.param == "node-local":
        config["path"] = str(tmp_path / "kv")
    with ServerManager("budget", config=config) as manager:
        with DataStore("client", server_info=manager.get_server_info()) as client:
            yield client


def _peak_multiple(call):
    """Peak traced allocation during ``call``, in payloads; and its result."""
    peak, result = peak_bytes(call)
    return peak / PAYLOAD.nbytes, result


def test_stage_write_allocates_only_what_the_server_keeps(store):
    store.stage_write("warm", PAYLOAD)  # connections, shard directories
    peak, _ = _peak_multiple(lambda: store.stage_write("snap", PAYLOAD))
    assert peak <= RETAINED[store.backend] + 0.1


def test_stage_read_allocates_only_the_result(store):
    store.stage_write("snap", PAYLOAD)
    peak, value = _peak_multiple(lambda: store.stage_read("snap"))
    np.testing.assert_array_equal(value, PAYLOAD)
    assert peak <= 1.1


AWKWARD = {
    "0d": np.array(2.5),
    "empty": np.empty((0, 4), dtype=np.float32),
    "noncontiguous": np.arange(1 << 16, dtype=np.float64).reshape(256, 256).T[::2],
    "big-endian": np.arange(20000, dtype=">f8"),
    "structured": np.array(
        [(1, 2.5, b"ab"), (3, 4.5, b"cd")] * 6000,
        dtype=[("i", "<i4"), ("x", "<f8"), ("s", "S2")],
    ),
    "datetime64": np.arange("2026-01-01", "2026-09-29", dtype="M8[D]"),
}


@pytest.mark.parametrize("name", list(AWKWARD))
def test_awkward_arrays_stay_exact(store, name):
    array = AWKWARD[name]
    store.stage_write(name, array)
    value = store.stage_read(name)
    assert value.dtype == array.dtype and value.shape == array.shape
    np.testing.assert_array_equal(value, array)
    assert value.flags.writeable and value.flags.aligned


def test_pickled_objects_stay_exact(store):
    small = {"step": 7, "tags": ["a", "b"], "nested": {"x": (1, 2)}}
    large = {"blob": bytes(range(256)) * 1024, "objects": np.array([{"k": 1}, None], dtype=object)}
    store.stage_write("small", small)
    store.stage_write("large", large)
    assert store.stage_read("small") == small
    value = store.stage_read("large")
    assert value["blob"] == large["blob"]
    assert list(value["objects"]) == list(large["objects"])


@pytest.mark.parametrize("n", [100, 1 << 20], ids=["small-frame", "large-frame"])
def test_returned_and_source_arrays_are_private(store, n):
    source = np.arange(n, dtype=np.float64)
    expected = source.copy()
    store.stage_write("snap", source)
    source[:] = -1.0  # the write kept no view of the caller's array
    first = store.stage_read("snap")
    np.testing.assert_array_equal(first, expected)
    first[:] = -2.0  # nor is the result the stored value
    np.testing.assert_array_equal(store.stage_read("snap"), expected)
