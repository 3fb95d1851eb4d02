"""Tests for the dragon-style distributed dictionary."""

import socket
import struct
import threading
import time

import numpy as np
import pytest

from repro.errors import BackendUnavailableError, KeyNotStagedError, ServerError
from repro.transport import DragonDictionary, DragonShardServer, DragonStoreClient
from repro.transport.dragon_backend import (
    OP_GET,
    OP_PING,
    OP_PUT,
    STATUS_ERROR,
    STATUS_OK,
    DragonConnection,
)
from repro.transport.resp import MAX_BULK_BYTES
from repro.transport.wire import recv_exact


@pytest.fixture
def shard():
    srv = DragonShardServer().start()
    yield srv
    srv.stop()


@pytest.fixture
def ddict(shard):
    d = DragonDictionary([shard.address])
    yield d
    d.close()


def test_shard_lifecycle(shard):
    assert shard.port > 0
    with pytest.raises(ServerError):
        shard.start()


def test_ping(ddict):
    assert ddict.ping()


def test_put_get_roundtrip(ddict):
    ddict.put("key1", b"value1")
    assert ddict.get("key1") == b"value1"


def test_get_missing(ddict):
    assert ddict.get("missing") is None


def test_overwrite(ddict):
    ddict.put("k", b"v1")
    ddict.put("k", b"v2")
    assert ddict.get("k") == b"v2"


def test_empty_value(ddict):
    ddict.put("empty", b"")
    assert ddict.get("empty") == b""


def test_large_value(ddict):
    payload = b"z" * (8 * 1024 * 1024)
    ddict.put("big", payload)
    assert ddict.get("big") == payload


def test_has_delete(ddict):
    ddict.put("k", b"v")
    assert ddict.has("k")
    assert ddict.delete("k")
    assert not ddict.has("k")
    assert not ddict.delete("k")


def test_keys_and_clear(ddict):
    for i in range(6):
        ddict.put(f"key{i}", b"v")
    assert ddict.keys() == [f"key{i}" for i in range(6)]
    assert ddict.clear() == 6
    assert ddict.keys() == []


def test_clear_empty(ddict):
    assert ddict.clear() == 0


def test_multi_shard_distribution():
    shards = [DragonShardServer().start() for _ in range(4)]
    try:
        d = DragonDictionary([s.address for s in shards])
        for i in range(80):
            d.put(f"key-{i}", str(i).encode())
        sizes = [s.size() for s in shards]
        assert sum(sizes) == 80
        assert all(size > 0 for size in sizes)
        for i in range(80):
            assert d.get(f"key-{i}") == str(i).encode()
        d.close()
    finally:
        for s in shards:
            s.stop()


def test_concurrent_clients(shard):
    errors = []

    def worker(i):
        try:
            d = DragonDictionary([shard.address])
            for j in range(20):
                d.put(f"w{i}-k{j}", f"{i}:{j}".encode())
            for j in range(20):
                assert d.get(f"w{i}-k{j}") == f"{i}:{j}".encode()
            d.close()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert errors == []
    assert shard.size() == 160


def test_requires_addresses():
    with pytest.raises(ServerError):
        DragonDictionary([])


def test_store_client_adapter(shard):
    store = DragonStoreClient([shard.address], name="ai")
    a = np.arange(123.0)
    store.stage_write("snap", a)
    np.testing.assert_array_equal(store.stage_read("snap"), a)
    assert store.poll_staged_data("snap")
    assert not store.poll_staged_data("other")
    with pytest.raises(KeyNotStagedError):
        store.stage_read("other")
    store.stage_write("b", {"nested": [1, 2]})
    assert store.clean_staged_data() == 2
    store.close()


def test_store_client_clean_specific(shard):
    store = DragonStoreClient([shard.address])
    store.stage_write("a", 1)
    store.stage_write("b", 2)
    assert store.clean_staged_data(["a", "zz"]) == 1
    assert store.poll_staged_data("b")
    store.close()


# -- hostile and broken peers ---------------------------------------------------


def _raw(shard):
    return socket.create_connection((shard.host, shard.port), timeout=5.0)


def _read_reply(sock):
    status, length = struct.unpack("<BQ", recv_exact(sock, 9))
    return status, bytes(recv_exact(sock, length))


@pytest.mark.parametrize(
    "request_prefix, what",
    [
        # PUT declaring a 2**62-byte value: used to park the thread in recv
        # forever; pre-sizing the receive buffer would make it a MemoryError.
        (struct.pack("<BI", OP_PUT, 1) + b"k" + struct.pack("<Q", 1 << 62), "value"),
        (struct.pack("<BI", OP_PUT, (1 << 32) - 1), "key"),
        (struct.pack("<BI", OP_GET, 1) + b"k" + struct.pack("<Q", MAX_BULK_BYTES + 1), "value"),
    ],
)
def test_oversized_declared_length_is_refused_and_closed(shard, request_prefix, what):
    with _raw(shard) as sock:
        sock.sendall(request_prefix)
        status, message = _read_reply(sock)
        assert status == STATUS_ERROR
        assert what in message.decode() and "frame limit" in message.decode()
        assert sock.recv(1) == b""  # closed, not left waiting for 2**62 bytes
    assert shard.requests_served == 0


def test_value_at_the_limit_header_is_not_refused(shard):
    # The bound is on the declared length alone: a frame at the limit is
    # read as usual (and this one simply never completes).
    with _raw(shard) as sock:
        sock.sendall(struct.pack("<BI", OP_PUT, 1) + b"k" + struct.pack("<Q", MAX_BULK_BYTES))
        sock.settimeout(0.2)
        with pytest.raises(socket.timeout):
            sock.recv(1)


def test_client_rejects_oversized_reply_header():
    listener = socket.create_server(("127.0.0.1", 0))
    try:
        conn = DragonConnection(*listener.getsockname(), timeout=5.0)
        peer, _ = listener.accept()
        with peer:
            peer.sendall(struct.pack("<BQ", STATUS_OK, 1 << 62))
            with pytest.raises(BackendUnavailableError, match="frame limit"):
                conn.request(OP_PING)
        conn.close()
    finally:
        listener.close()


@pytest.mark.parametrize(
    "prefix",
    [
        struct.pack("<BI", OP_PUT, 8) + b"k",  # the 6-byte reproduction: inside the key
        struct.pack("<BI", OP_PUT, 1) + b"k" + b"\x10\x00",  # inside the value header
        struct.pack("<BI", OP_PUT, 1) + b"k" + struct.pack("<Q", 64) + b"xx",  # inside the value
        b"\x01",  # inside the request header
    ],
)
def test_mid_frame_disconnect_is_a_clean_close(shard, prefix, monkeypatch):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    with _raw(shard) as sock:
        sock.sendall(prefix)
    deadline = time.monotonic() + 5.0
    while shard._listener.conns and time.monotonic() < deadline:
        time.sleep(0.01)
    assert not shard._listener.conns
    assert crashes == []
    # The shard still serves.
    d = DragonDictionary([shard.address])
    try:
        assert d.ping()
    finally:
        d.close()


def test_finished_connection_threads_are_pruned(shard):
    for _ in range(20):
        d = DragonDictionary([shard.address])
        assert d.ping()
        d.close()
    deadline = time.monotonic() + 5.0
    while shard._listener.conns and time.monotonic() < deadline:
        time.sleep(0.01)
    # Pruning happens at the next accept; the list holds live threads only.
    d = DragonDictionary([shard.address])
    try:
        assert d.ping()
        assert len(shard._listener.threads) <= 2
    finally:
        d.close()
