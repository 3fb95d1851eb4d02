"""Tests for ServerManager and the DataStore facade across all backends."""

import threading
import time

import numpy as np
import pytest

from repro.errors import ServerError, TransportError
from repro.transport import DataStore, ServerManager

ALL_BACKENDS = ["node-local", "filesystem", "redis", "dragon"]


@pytest.fixture(params=ALL_BACKENDS)
def running_server(request, tmp_path):
    config = {"backend": request.param, "n_shards": 2}
    if request.param in ("node-local", "filesystem"):
        config["path"] = str(tmp_path / request.param)
    manager = ServerManager("stage", config=config)
    manager.start_server()
    yield manager
    manager.stop_server()


def test_server_info_shape(running_server):
    info = running_server.get_server_info()
    assert info["backend"] == running_server.config.backend
    if info["backend"] in ("node-local", "filesystem"):
        assert "path" in info
    else:
        assert len(info["addresses"]) == 2


def test_filesystem_info_carries_stripe_settings(tmp_path):
    manager = ServerManager(
        "fs",
        config={
            "backend": "filesystem",
            "path": str(tmp_path),
            "stripe_size_mb": 1.0,
            "stripe_count": 1,
        },
    )
    with manager:
        info = manager.get_server_info()
        assert info["stripe_size_mb"] == 1.0
        assert info["stripe_count"] == 1


def test_datastore_roundtrip_every_backend(running_server):
    """The paper's core claim: identical client code for every backend."""
    info = running_server.get_server_info()
    store = DataStore("sim", server_info=info)
    assert store.backend == running_server.config.backend
    a = np.arange(500.0)
    store.stage_write("key1", a)
    assert store.poll_staged_data("key1")
    np.testing.assert_array_equal(store.stage_read("key1"), a)
    store.stage_write("key2", {"step": 7})
    assert store.stage_read("key2") == {"step": 7}
    assert store.clean_staged_data() >= 2
    assert not store.poll_staged_data("key1")
    store.close()


def test_datastore_shared_between_writer_and_reader(running_server):
    info = running_server.get_server_info()
    writer = DataStore("sim", server_info=info, rank=0)
    reader = DataStore("ai", server_info=info, rank=0)
    writer.stage_write("snapshot", np.ones(64))
    assert reader.poll_staged_data("snapshot")
    np.testing.assert_array_equal(reader.stage_read("snapshot"), np.ones(64))
    writer.close()
    reader.close()


def test_info_before_start_rejected(tmp_path):
    manager = ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)})
    with pytest.raises(ServerError):
        manager.get_server_info()


def test_double_start_rejected(tmp_path):
    manager = ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)})
    manager.start_server()
    try:
        with pytest.raises(ServerError):
            manager.start_server()
    finally:
        manager.stop_server()


def test_stop_idempotent(tmp_path):
    manager = ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)})
    manager.start_server()
    manager.stop_server()
    manager.stop_server()


def test_default_config_is_node_local_tempdir():
    manager = ServerManager("s")
    with manager:
        info = manager.get_server_info()
        assert info["backend"] == "node-local"
        path = info["path"]
    # owned temp dir removed on stop
    import os

    assert not os.path.exists(path)


def test_user_path_not_removed_on_stop(tmp_path):
    manager = ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)})
    manager.start_server()
    manager.stop_server()
    assert tmp_path.exists()


def test_context_manager_lifecycle(tmp_path):
    with ServerManager("s", config={"backend": "dragon", "n_shards": 1}) as manager:
        assert manager.is_running
        info = manager.get_server_info()
        store = DataStore("c", server_info=info)
        store.stage_write("k", 42)
        assert store.stage_read("k") == 42
        store.close()
    assert not manager.is_running


def test_config_from_json_file(tmp_path):
    import json

    cfg_path = tmp_path / "server.json"
    cfg_path.write_text(json.dumps({"backend": "redis", "n_shards": 1}))
    with ServerManager("s", config=str(cfg_path)) as manager:
        assert manager.get_server_info()["backend"] == "redis"


def test_make_client_validation(tmp_path):
    from repro.transport import make_client

    with pytest.raises(TransportError, match="backend"):
        make_client({})
    with pytest.raises(TransportError, match="path"):
        make_client({"backend": "node-local"})
    with pytest.raises(TransportError, match="addresses"):
        make_client({"backend": "redis"})
    with pytest.raises(TransportError, match="unknown backend"):
        make_client({"backend": "s3"})


def test_datastore_event_log_wiring(tmp_path):
    from repro.telemetry import EventLog

    log = EventLog()
    with ServerManager("s", config={"backend": "node-local", "path": str(tmp_path)}) as m:
        store = DataStore("sim", server_info=m.get_server_info(), event_log=log)
        store.stage_write("k", np.ones(10))
        store.stage_read("k")
    assert len(log) == 2
    assert store.event_log is log


def test_dispatch_exception_becomes_error_reply_not_disconnect():
    """A handler bug must answer -ERR, not kill the connection thread."""
    from repro.transport import resp
    from repro.transport.redis_backend import MiniRedisConnection
    from repro.transport.resp import ServerReplyError
    from repro.transport.server import RespTcpServer

    class BuggyServer(RespTcpServer):
        def _dispatch(self, name, args):
            if name == "PING":
                return resp.encode_simple("PONG")
            raise ValueError("handler bug")

    server = BuggyServer()
    server.start()
    try:
        conn = MiniRedisConnection(server.host, server.port)
        with pytest.raises(ServerReplyError, match="internal ValueError"):
            conn.command("BOOM")
        # The connection survived and still answers the next command.
        assert conn.command("PING") == "PONG"
        conn.close()
    finally:
        server.stop()


@pytest.mark.parametrize("backend", ["redis", "dragon"])
def test_stop_server_does_not_wait_out_an_accept_poll(backend):
    """Two shards used to cost 0.2 s each; live connections included."""
    manager = ServerManager("fast-stop", config={"backend": backend, "n_shards": 2})
    manager.start_server()
    with DataStore("client", server_info=manager.get_server_info()) as store:
        for i in range(8):  # enough keys to open a connection to both shards
            store.stage_write(f"k{i}", i)
        start = time.perf_counter()
        manager.stop_server()
        assert time.perf_counter() - start < 0.05


@pytest.mark.parametrize("backend", ["redis", "dragon", "streaming"])
def test_stop_before_start_and_stop_twice_are_quiet(backend, monkeypatch):
    from repro.transport import StreamWriter
    from repro.transport.dragon_backend import DragonShardServer
    from repro.transport.redis_backend import MiniRedisServer

    make, stop = {
        "redis": (MiniRedisServer, "stop"),
        "dragon": (DragonShardServer, "stop"),
        "streaming": (StreamWriter, "close"),
    }[backend]
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    never_started = make()
    getattr(never_started, stop)()
    getattr(never_started, stop)()
    server = make(port=never_started.port)  # the port came back with the first stop
    if backend != "streaming":  # a writer serves from construction
        server.start()
    getattr(server, stop)()
    getattr(server, stop)()
    assert crashes == []
