"""Every server port has a same-host Unix-socket twin (``wire.Listener``)
and every client prefers it (``wire.connect``): which family a dial gets,
that both families enter the same serving code, and that a proxy, a
twin-less listener or another host's spelling is reached over TCP."""

import json
import multiprocessing
import signal
import socket
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.errors import ServerError
from repro.faults.netproxy import ChaosProxy, NetChaos
from repro.sweep.dist.service import SweepService
from repro.transport import DataStore, ServerManager, StreamReader, StreamWriter, resp, wire
from repro.transport.dragon_backend import OP_PING, DragonConnection, DragonShardServer
from repro.transport.redis_backend import MiniRedisConnection, MiniRedisServer
from repro.transport.server import RespTcpServer
from tests.transport import test_copy_budget as budget
from tests.transport import test_wire_fuzz as fuzz

pytestmark = pytest.mark.skipif(not wire._HAS_TWIN, reason="abstract Unix sockets are Linux-only")

UNIX, TCP = socket.AF_UNIX, socket.AF_INET


@pytest.fixture(autouse=True)
def no_thread_dies(monkeypatch):
    crashes = []
    monkeypatch.setattr(threading, "excepthook", crashes.append)
    yield
    assert crashes == []


@pytest.fixture
def no_twin(monkeypatch):
    """What a platform without abstract sockets sees: TCP listeners, TCP dials."""
    monkeypatch.setattr(wire, "_HAS_TWIN", False)


def dial(server, family):
    if family == UNIX:
        return wire.connect(server.host, server.port, 5.0)
    return socket.create_connection((server.host, server.port), timeout=5.0)


# -- which family a client gets ----------------------------------------------
def redis_case(tmp_path):
    server = MiniRedisServer().start()
    conn = MiniRedisConnection(server.host, server.port, timeout=5.0)
    return server, server.stop, conn, conn._sock, lambda: conn.command("PING") == "PONG"


def dragon_case(tmp_path):
    server = DragonShardServer().start()
    conn = DragonConnection(server.host, server.port, timeout=5.0)
    return server, server.stop, conn, conn._sock, lambda: conn.request(OP_PING)[1] == b"pong"


def streaming_case(tmp_path):
    writer = StreamWriter()
    writer.write_step({"x": np.arange(4.0)})
    reader = StreamReader(writer.address, timeout=5.0)
    return writer, writer.close, reader, reader._sock, lambda: reader.read_step()["x"][3] == 3.0


def service_case(tmp_path):
    service = SweepService(tmp_path / "store.sqlite").start()
    conn = MiniRedisConnection(service.host, service.port, timeout=5.0)

    def health_counts_us():
        queues = json.loads(conn.command("HEALTH"))["queues"]
        return queues["local_connections"] == 1 and queues["connections"] == 1

    return service, service.stop, conn, conn._sock, health_counts_us


CASES = [redis_case, dragon_case, streaming_case, service_case]


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__[:-5])
def test_client_dialling_the_advertised_address_gets_the_twin(case, tmp_path):
    server, stop, client, sock, roundtrip = case(tmp_path)
    try:
        assert sock.family == UNIX
        assert roundtrip()
        assert server._listener.local_connections == 1
    finally:
        client.close()
        stop()


@pytest.mark.parametrize("case", CASES, ids=lambda case: case.__name__[:-5])
def test_listener_without_a_twin_is_dialled_over_tcp(case, tmp_path, no_twin):
    server, stop, client, sock, roundtrip = case(tmp_path)
    try:
        assert sock.family == TCP
        assert sock.getsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY)
        if case is not service_case:  # its roundtrip *is* the counter
            assert roundtrip()
        assert server._listener.local_connections == 0
    finally:
        client.close()
        stop()


def test_client_aimed_at_a_proxy_goes_through_the_proxy():
    payload = np.random.default_rng(24).random(1 << 16)
    with ServerManager("twin", config={"backend": "redis"}) as manager:
        info = manager.get_server_info()
        host, port = info["addresses"][0].rsplit(":", 1)
        with ChaosProxy((host, int(port)), NetChaos(seed=1)) as proxy:
            with DataStore("direct", server_info=info) as direct:
                direct.stage_write("snap", payload)
            with DataStore("proxied", server_info={**info, "addresses": [proxy.address]}) as far:
                np.testing.assert_array_equal(far.stage_read("snap"), payload)
                assert far._client.client._connection(0)._sock.family == TCP
            assert proxy.stats["accepted"] == 1
            assert proxy.stats["relayed_bytes"] >= payload.nbytes
        assert manager._servers[0].local_connections == 1  # only the direct client


def test_another_spelling_of_the_host_is_reached_over_tcp():
    with MiniRedisServer() as server:
        conn = MiniRedisConnection("localhost", server.port, timeout=5.0)
        try:
            assert conn._sock.family == TCP
            assert conn.command("PING") == "PONG"
        finally:
            conn.close()
        assert server.local_connections == 0


def test_same_port_on_two_loopback_addresses_gets_two_twins():
    first = MiniRedisServer(host="127.0.0.1").start()
    try:
        try:
            second = MiniRedisServer(host="127.0.0.2", port=first.port).start()
        except ServerError as exc:
            pytest.skip(f"127.0.0.2:{first.port} unavailable: {exc}")
        try:
            for server, value in ((first, b"one"), (second, b"two")):
                conn = MiniRedisConnection(server.host, server.port, timeout=5.0)
                assert conn._sock.family == UNIX
                assert conn.command("SET", "who", value) == "OK"
                conn.close()
            for server, value in ((first, b"one"), (second, b"two")):
                conn = MiniRedisConnection(server.host, server.port, timeout=5.0)
                assert bytes(conn.command("GET", "who")) == value
                conn.close()
                assert server.local_connections == 2
        finally:
            second.stop()
    finally:
        first.stop()


# -- both families enter the same serving code ---------------------------------
class BlobServer(RespTcpServer):
    def _dispatch(self, name, args):
        if name == "BLOB":  # a large reply from a tiny request
            return resp.encode_bulk(b"x" * 262144)
        return resp.encode_simple("PONG")


@pytest.mark.parametrize(
    "families", ["unix unix unix", "unix tcp tcp", "tcp unix unix", "tcp tcp unix"]
)
def test_connection_cap_counts_both_families_together(families):
    *held, extra = ({"unix": UNIX, "tcp": TCP}[name] for name in families.split())
    ping = resp.encode_command("PING")
    with BlobServer(max_connections=len(held)) as server:
        socks = [dial(server, family) for family in held]
        try:
            for sock, family in zip(socks, held):
                assert sock.family == family
                sock.sendall(ping)
                assert sock.recv(64) == b"+PONG\r\n"
            refused = dial(server, extra)
            socks.append(refused)
            assert refused.family == extra
            line = refused.recv(4096)
            assert line.startswith(b"-BUSY ") and b"connection limit 2" in line
            assert refused.recv(64) == b""
            assert server.refused_connections == 1
            assert server.local_connections == families.count("unix")
        finally:
            for sock in socks:
                sock.close()


def test_idle_deadline_fires_on_a_twin_connection():
    with BlobServer(idle_timeout=0.2) as server:
        with dial(server, UNIX) as sock:
            assert sock.recv(64) == b""  # sent nothing: the server gave up on us
        assert server.idle_disconnects == 1


def test_write_deadline_drops_a_slow_loris_on_the_twin():
    with BlobServer(write_timeout=0.2) as server:
        with dial(server, UNIX) as sock:
            sock.sendall(resp.encode_command("BLOB") * 64)  # and never read a reply
            deadline = time.monotonic() + 10.0
            while server.stalled_disconnects == 0:
                assert time.monotonic() < deadline, "server never gave up on the unread replies"
                time.sleep(0.05)
        assert server.stalled_disconnects == 1


def test_servers_starting_and_stopping_under_the_shared_accept_thread():
    """More threads than cores start, dial and stop servers at once: every
    dial is answered, nothing stays registered, no thread dies."""
    watched = wire._accept_thread._selector
    before = len(watched.get_map()) if watched else 0
    deadline = time.monotonic() + 20.0
    failures = []

    def churn():
        try:
            for i in range(15):
                assert time.monotonic() < deadline
                with MiniRedisServer() as server:
                    for family in (UNIX, TCP, UNIX):
                        with dial(server, family) as sock:
                            sock.sendall(resp.encode_command("PING"))
                            assert sock.recv(64) == b"+PONG\r\n"
                    assert server.local_connections == 2
        except BaseException as exc:
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=churn) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert len(wire._accept_thread._selector.get_map()) == before


def _serve_and_ping():
    with MiniRedisServer() as server:
        conn = MiniRedisConnection(server.host, server.port, timeout=5.0)
        assert conn._sock.family == UNIX and conn.command("PING") == "PONG"


def test_forked_child_accepts_on_a_thread_of_its_own():
    with MiniRedisServer():  # our accept thread is running; fork does not copy it
        child = multiprocessing.get_context("fork").Process(target=_serve_and_ping)
        child.start()
        child.join(timeout=20.0)
        if child.is_alive():
            child.kill()
            pytest.fail("a server in a forked child never accepted")
        assert child.exitcode == 0


CHILD = """
import sys, time
from repro.transport.redis_backend import MiniRedisServer
server = MiniRedisServer().start()
print(server.port, flush=True)
time.sleep(60)
"""


def test_sigkilled_servers_twin_name_is_free_for_its_successor():
    child = subprocess.Popen(
        [sys.executable, "-c", CHILD], stdout=subprocess.PIPE, text=True
    )
    try:
        port = int(child.stdout.readline())
        conn = MiniRedisConnection("127.0.0.1", port, timeout=5.0)
        assert conn._sock.family == UNIX and conn.command("PING") == "PONG"
        conn.close()
    finally:
        child.send_signal(signal.SIGKILL)
        child.wait(timeout=10.0)
        child.stdout.close()
    with MiniRedisServer(port=port) as successor:
        conn = MiniRedisConnection("127.0.0.1", port, timeout=5.0)
        try:
            assert conn._sock.family == UNIX and conn.command("PING") == "PONG"
        finally:
            conn.close()
        assert successor.local_connections == 1


# -- the other family of two existing suites, expectations unchanged -----------
@pytest.mark.parametrize("entry", fuzz.entries("resp"))
def test_fuzz_corpus_replays_over_the_twin(entry):
    with MiniRedisServer() as server:
        with dial(server, UNIX) as sock:
            sock.settimeout(10.0)
            sock.sendall(fuzz.wire_bytes(entry))
            sock.shutdown(socket.SHUT_WR)
            received = b""
            while chunk := sock.recv(65536):  # socket.timeout here = the server hung
                received += chunk
        replies = [line for line in received.split(b"\r\n") if line]
        assert len(replies) == entry.get("frames", 0) + (entry["then"] == "error")
        if entry["then"] == "error":
            assert replies[-1].startswith(b"-ERR ")
        with dial(server, UNIX) as probe:  # still serving everyone else
            probe.sendall(resp.encode_command("PING"))
            assert probe.recv(64) == b"+PONG\r\n"


@pytest.fixture(params=["redis", "dragon"])
def tcp_store(request, no_twin):
    with ServerManager("budget", config={"backend": request.param, "n_shards": 2}) as manager:
        with DataStore("client", server_info=manager.get_server_info()) as client:
            yield client


def test_copy_budget_holds_over_tcp(tcp_store):
    budget.test_stage_write_allocates_only_what_the_server_keeps(tcp_store)
    budget.test_stage_read_allocates_only_the_result(tcp_store)
    budget.test_returned_and_source_arrays_are_private(tcp_store, 1 << 20)
