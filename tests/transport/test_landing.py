"""Staged values on either side of the 64 KiB receive-buffer threshold.

Below it a receive buffer is a zero-filled ``bytearray``; from it up the
buffer is left as malloc gave it (``wire.landing``) and the kernel's
bytes are the first written into it. Every backend must hand back the
same values on both paths, and a frame cut short must never hand back
a buffer that is partly stale.
"""

import json
import socket
import threading

import numpy as np
import pytest

from repro.errors import BackendUnavailableError
from repro.transport import DataStore, ServerManager, StreamReader, StreamWriter
from repro.transport import streaming
from repro.transport.dragon_backend import (
    OP_GET,
    STATUS_OK,
    DragonConnection,
    DragonDictionary,
    DragonShardServer,
    _RESP_HEADER,
)
from repro.transport.redis_backend import MiniRedisConnection, MiniRedisServer
from repro.transport.resp import DIRECT_BULK_BYTES, RespParser, ServerReplyError, encode_bulk
from repro.transport.serializer import serialized_nbytes
from repro.transport.wire import landing, recv_exact

SIZES = {
    "below": DIRECT_BULK_BYTES - 1,
    "at": DIRECT_BULK_BYTES,
    "above": DIRECT_BULK_BYTES + 1,
    "1mib": (1 << 20) + 13,
}


def _array_staged_as(size, staged_nbytes):
    """A uint8 array whose staged size is exactly ``size`` bytes."""
    for n in range(size, size - 512, -1):
        if staged_nbytes(n) == size:
            return np.random.default_rng(n).integers(0, 256, n, dtype=np.uint8)
    raise AssertionError(f"no array stages as {size} bytes")


def _check(value, expected):
    np.testing.assert_array_equal(value, expected)
    assert value.flags.writeable
    assert value.ctypes.data % 8 == 0  # aligned for any 8-byte dtype
    value[:] = 7  # writable and private: the store keeps its own copy


@pytest.fixture(scope="module", params=["node-local", "redis", "dragon"])
def store(request, tmp_path_factory):
    config = {"backend": request.param, "n_shards": 2}
    if request.param == "node-local":
        config["path"] = str(tmp_path_factory.mktemp("kv"))
    with ServerManager("landing", config=config) as manager:
        with DataStore("client", server_info=manager.get_server_info()) as client:
            yield client


@pytest.mark.parametrize("size", SIZES.values(), ids=SIZES.keys())
def test_values_across_the_threshold_come_back_exact(store, size):
    value = _array_staged_as(size, lambda n: serialized_nbytes(np.empty(n, np.uint8)))
    assert store.stage_write("v", value) == size
    _check(store.stage_read("v"), value)
    _check(store.stage_read("v"), value)  # the first read left the store's copy alone


@pytest.mark.parametrize("size", SIZES.values(), ids=SIZES.keys())
def test_streamed_values_across_the_threshold_come_back_exact(size):
    def step_nbytes(n):
        return len(streaming._encode_step({"v": np.zeros(n, np.uint8)}))

    value = _array_staged_as(size, step_nbytes)
    with StreamWriter(queue_limit=2, backpressure_timeout=20.0) as writer:
        assert writer.write_step({"v": value}) == size
        writer.finish()
        with StreamReader(writer.address) as reader:
            _check(reader.read_step()["v"], value)
            assert reader.read_step() is None


def test_landing_buffers_are_private_and_writable():
    for size in SIZES.values():
        buffer = landing(size)
        assert len(buffer) == size
        buffer[:] = b"\x01" * size
        buffer.append(2)  # nothing else refers to it: still resizable
        assert buffer.count(1) == size


# -- text that lands large ---------------------------------------------------
@pytest.fixture
def shard():
    server = DragonShardServer().start()
    yield server
    server.stop()


def test_dragon_key_of_64kib_decodes(shard):
    key = "k" * DIRECT_BULK_BYTES + "é"
    ddict = DragonDictionary([shard.address])
    try:
        ddict.put(key, b"value")
        assert ddict.has(key)
        assert ddict.get(key) == b"value"
        assert ddict.keys() == [key]
    finally:
        ddict.close()


def test_dragon_keys_reply_of_64kib_decodes(shard):
    keys = sorted(f"{i}" + "k" * (DIRECT_BULK_BYTES // 2) for i in range(3))
    ddict = DragonDictionary([shard.address])
    try:
        for key in keys:
            ddict.put(key, b"v")
        assert ddict.keys() == keys
    finally:
        ddict.close()


def test_resp_command_name_of_64kib_is_refused():
    server = MiniRedisServer().start()
    conn = MiniRedisConnection(server.host, server.port)
    try:
        with pytest.raises(ServerReplyError, match="protocol: command must be a bulk string"):
            conn.command("X" * DIRECT_BULK_BYTES)
        assert conn.command("PING") == "PONG"
    finally:
        conn.close()
        server.stop()


def test_large_bulk_is_still_text_to_its_reader():
    """The sweep service's JSON replies and arguments ride the same parser
    and are read with ``json.loads`` and ``.decode``: a landed bulk has to
    stay a ``bytearray``, not become a ``memoryview``."""
    doc = {"rows": [{"i": i, "name": "é" * 8} for i in range(4000)]}
    text = json.dumps(doc).encode()
    assert len(text) >= DIRECT_BULK_BYTES
    parser = RespParser()
    parser.feed(b"".join(encode_bulk(text)))
    found, value = parser.pop_frame()
    assert found and isinstance(value, bytearray)
    assert json.loads(value) == doc and value.decode() == text.decode()


# -- a peer that closes mid-payload -------------------------------------------
PARTIAL = b"\xab" * (DIRECT_BULK_BYTES + 100)
DECLARED = 1 << 20


def test_recv_exact_peer_closing_mid_payload_raises():
    ours, theirs = socket.socketpair()
    try:
        theirs.sendall(PARTIAL)
        theirs.close()
        with pytest.raises(ConnectionError, match=f"{len(PARTIAL)} of {DECLARED}"):
            recv_exact(ours, DECLARED)
    finally:
        ours.close()


@pytest.fixture
def cut_short():
    """A TCP server that answers one request with ``reply`` and hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))
    replies = []

    def serve():
        conn, _ = listener.accept()
        with conn:
            conn.recv(1 << 16)
            conn.sendall(replies[0])

    def start(reply):
        replies.append(reply)
        threading.Thread(target=serve, daemon=True).start()
        return listener.getsockname()

    yield start
    listener.close()


def test_dragon_reply_cut_short_raises(cut_short):
    host, port = cut_short(_RESP_HEADER.pack(STATUS_OK, DECLARED) + PARTIAL)
    conn = DragonConnection(host, port, timeout=10.0)
    try:
        with pytest.raises(BackendUnavailableError, match="closed mid-frame"):
            conn.request(OP_GET, "k")
    finally:
        conn.close()


def test_resp_reply_cut_short_raises(cut_short):
    host, port = cut_short(b"$%d\r\n" % DECLARED + PARTIAL)
    conn = MiniRedisConnection(host, port, timeout=10.0)
    try:
        with pytest.raises(BackendUnavailableError, match="closed by server"):
            conn.command("GET", "k")
    finally:
        conn.close()


def test_resp_parser_holds_back_a_bulk_until_it_is_whole():
    parser = RespParser()
    parser.feed(b"$%d\r\n" % DECLARED + PARTIAL)
    assert parser.pop_frame() == (False, None)
    parser.feed(b"\xcd" * (DECLARED - len(PARTIAL)))
    assert parser.pop_frame() == (False, None)  # the CRLF is still missing
    parser.feed(b"\r\n")
    found, value = parser.pop_frame()
    assert found and value == PARTIAL + b"\xcd" * (DECLARED - len(PARTIAL))
