"""Tests for the sharded file KV store (node-local / filesystem backend).

The store and client tests root their store at ``kv_root``: a directory
on disk here; ``test_kvfile_tmpfs`` runs them again on tmpfs.
"""

import errno
import os
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import (
    BackendUnavailableError,
    CorruptPayloadError,
    KeyNotStagedError,
    TransportError,
)
from repro.transport import FileStoreClient, ShardedFileStore, crc32_shard
from repro.transport.resilience import resilient_client_from_config

KEY_ALPHABET = "abcdefghijklmnopqrstuvwxyz0123456789_-."


@pytest.fixture
def kv_root(tmp_path):
    return tmp_path


def test_crc32_shard_stable_and_in_range():
    for key in ("key1", "key2", "abc", "x" * 100):
        shard = crc32_shard(key, 7)
        assert 0 <= shard < 7
        assert shard == crc32_shard(key, 7)  # deterministic


def test_crc32_shard_validation():
    with pytest.raises(TransportError):
        crc32_shard("k", 0)


def test_crc32_shard_distribution_roughly_uniform():
    n_shards = 8
    counts = [0] * n_shards
    for i in range(4000):
        counts[crc32_shard(f"key-{i}", n_shards)] += 1
    assert min(counts) > 300  # perfectly uniform would be 500


def test_store_creates_shard_dirs(kv_root):
    ShardedFileStore(kv_root, n_shards=3)
    assert sorted(p.name for p in kv_root.iterdir()) == [
        "shard0000",
        "shard0001",
        "shard0002",
    ]


def test_store_write_read_roundtrip(kv_root):
    store = ShardedFileStore(kv_root, n_shards=4)
    store.write("key1", b"hello")
    assert store.read("key1") == b"hello"


def test_store_value_file_named_key_dot_pickle(kv_root):
    store = ShardedFileStore(kv_root, n_shards=2)
    store.write("key1", b"x")
    assert store.path_for("key1").name == "key1.pickle"
    assert store.path_for("key1").exists()


def test_store_overwrite(kv_root):
    store = ShardedFileStore(kv_root)
    store.write("k", b"v1")
    store.write("k", b"v2")
    assert store.read("k") == b"v2"


def test_store_read_missing_raises(kv_root):
    store = ShardedFileStore(kv_root)
    with pytest.raises(KeyNotStagedError):
        store.read("missing")


def test_store_poll_and_delete(kv_root):
    store = ShardedFileStore(kv_root)
    assert not store.poll("k")
    store.write("k", b"v")
    assert store.poll("k")
    assert store.delete("k")
    assert not store.poll("k")
    assert not store.delete("k")


def test_store_keys_and_clear(kv_root):
    store = ShardedFileStore(kv_root, n_shards=4)
    for i in range(10):
        store.write(f"key{i}", b"v")
    assert store.keys() == sorted(f"key{i}" for i in range(10))
    assert store.clear() == 10
    assert store.keys() == []


def test_store_no_temp_files_left_behind(kv_root):
    store = ShardedFileStore(kv_root, n_shards=2)
    for i in range(20):
        store.write(f"k{i}", b"data" * 100)
    leftovers = [p for p in kv_root.rglob("*.tmp")]
    assert leftovers == []


def test_store_concurrent_writers_readers_atomicity(kv_root):
    """Readers must never observe a torn value under concurrent overwrite.

    The 256 KiB case lands above the receive-buffer threshold (unfilled
    buffers) and republishes size-hinted files over each other.
    """
    for size in (4096, 256 * 1024):
        store = ShardedFileStore(kv_root / str(size), n_shards=1)
        payloads = [bytes([i]) * size for i in range(8)]
        store.write("hot", payloads[0])
        stop = threading.Event()
        errors: list[str] = []

        def writer():
            i = 0
            while not stop.is_set():
                store.write("hot", payloads[i % len(payloads)])
                i += 1

        def reader():
            while not stop.is_set():
                blob = store.read("hot")
                if len(blob) != size or blob.count(blob[:1]) != size:
                    errors.append("torn read observed")
                    return

        threads = [threading.Thread(target=writer) for _ in range(2)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        stop_timer = threading.Timer(0.5, stop.set)
        stop_timer.start()
        for t in threads:
            t.join(timeout=10)
        stop_timer.cancel()
        assert not any(t.is_alive() for t in threads)
        assert errors == [], size


def test_store_validation(kv_root):
    with pytest.raises(TransportError):
        ShardedFileStore(kv_root, n_shards=0)


# ---------------------------------------------------------------------------
# FileStoreClient (DataStore API over the store)
# ---------------------------------------------------------------------------


def test_client_numpy_roundtrip(kv_root):
    client = FileStoreClient(kv_root, n_shards=2)
    a = np.arange(100.0)
    nbytes = client.stage_write("arr", a)
    assert nbytes > a.nbytes  # header overhead
    np.testing.assert_array_equal(client.stage_read("arr"), a)


def test_client_poll_and_clean(kv_root):
    client = FileStoreClient(kv_root)
    assert not client.poll_staged_data("k")
    client.stage_write("k", 1)
    assert client.poll_staged_data("k")
    assert client.clean_staged_data(["k"]) == 1
    assert not client.poll_staged_data("k")


def test_client_clean_all(kv_root):
    client = FileStoreClient(kv_root, n_shards=3)
    for i in range(5):
        client.stage_write(f"k{i}", i)
    assert client.clean_staged_data() == 5


def test_client_stats_accumulate(kv_root):
    client = FileStoreClient(kv_root)
    client.stage_write("a", np.ones(100))
    client.stage_write("b", np.ones(100))
    client.stage_read("a")
    client.poll_staged_data("a")
    assert client.stats.write.count == 2
    assert client.stats.read.count == 1
    assert client.stats.poll.count == 1
    assert client.stats.write.nbytes > 1600
    assert client.stats.write.throughput > 0


def test_client_event_log_records(kv_root):
    from repro.telemetry import EventKind, EventLog

    log = EventLog()
    client = FileStoreClient(kv_root, name="sim", rank=3, event_log=log)
    client.stage_write("k", np.ones(10))
    client.stage_read("k")
    assert len(log) == 2
    assert log[0].kind is EventKind.WRITE
    assert log[0].rank == 3
    assert log[1].kind is EventKind.READ
    assert log[1].key == "k"


def test_client_key_validation(kv_root):
    client = FileStoreClient(kv_root)
    with pytest.raises(TransportError):
        client.stage_write("", 1)
    with pytest.raises(TransportError):
        client.stage_write("bad/key", 1)
    with pytest.raises(TransportError):
        client.stage_read(None)  # type: ignore[arg-type]


def test_client_backend_name(kv_root):
    assert FileStoreClient(kv_root).backend_name == "node-local"
    assert (
        FileStoreClient(kv_root, backend_name="filesystem").backend_name == "filesystem"
    )


# ---------------------------------------------------------------------------
# What a full disk or a host crash leaves behind
# ---------------------------------------------------------------------------


def _no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("call", ["write", "replace"])
def test_write_failure_is_backend_unavailable(kv_root, monkeypatch, call):
    """A publish that fails at the write or at the rename raises the
    transport's error (so it is retried), leaves no temp file and no open
    descriptor, and keeps the old value."""
    client = FileStoreClient(kv_root)
    client.stage_write("k", np.arange(4.0))
    mkstemp, opened = tempfile.mkstemp, []

    def recording_mkstemp(**kwargs):
        opened.append(mkstemp(**kwargs))
        return opened[-1]

    monkeypatch.setattr(tempfile, "mkstemp", recording_mkstemp)
    monkeypatch.setattr(os, call, _no_space)
    with pytest.raises(BackendUnavailableError, match="No space left") as info:
        client.stage_write("k", np.ones(1 << 15))
    monkeypatch.undo()
    assert isinstance(info.value.__cause__, OSError)
    assert info.value.__cause__.errno == errno.ENOSPC
    [(fd, _)] = opened
    with pytest.raises(OSError, match="Bad file descriptor"):
        os.fstat(fd)
    assert list(kv_root.rglob("*.tmp")) == []
    np.testing.assert_array_equal(client.stage_read("k"), np.arange(4.0))


def test_write_failure_is_retried_and_counted(kv_root, monkeypatch):
    client = resilient_client_from_config(FileStoreClient(kv_root), {"seed": 1})
    client._sleep = lambda _: None
    replace, calls = os.replace, []

    def full_once(src, dst):
        calls.append(dst)
        if len(calls) == 1:
            _no_space()
        replace(src, dst)

    monkeypatch.setattr(os, "replace", full_once)
    client.stage_write("k", np.arange(3.0))
    assert len(calls) == 2
    assert client.resilience.failures == 1 and client.resilience.retries == 1
    assert client.resilience.failed[0].error == "BackendUnavailableError"
    assert list(kv_root.rglob("*.tmp")) == []
    np.testing.assert_array_equal(client.stage_read("k"), np.arange(3.0))


@pytest.mark.parametrize(
    "left, error",
    [
        ("zeros", r"unknown serialization magic b'\\x00\\x00\\x00\\x00'"),
        ("empty", "blob too short"),
    ],
)
def test_crash_left_file_is_corrupt_not_data(kv_root, left, error):
    """A host crash before writeback can leave ``<key>.pickle`` at full
    length reading as zeros (its size was stated first) or empty; a read
    raises rather than return an array."""
    client = FileStoreClient(kv_root)
    client.stage_write("k", np.arange(1 << 14, dtype=np.float64))  # 128 KiB
    path = client.store.path_for("k")
    path.write_bytes(bytes(path.stat().st_size if left == "zeros" else 0))
    with pytest.raises(CorruptPayloadError, match=error):
        client.stage_read("k")


@settings(max_examples=30, deadline=None)
@given(
    key=st.text(alphabet=KEY_ALPHABET, min_size=1, max_size=32),
    payload=st.binary(min_size=0, max_size=2048),
)
def test_store_roundtrip_property(tmp_path_factory, key, payload):
    tmp = tmp_path_factory.mktemp("kv")
    store = ShardedFileStore(tmp, n_shards=4)
    store.write(key, payload)
    assert store.read(key) == payload
    assert store.poll(key)
