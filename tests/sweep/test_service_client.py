"""The ServiceClient contract, against a scripted RESP server.

Every sweep-side exchange with a service goes through
:class:`~repro.sweep.dist.service.ServiceClient` — tenants, workers and
the watch console — so its connection, retry and wait rules are pinned
here once, without a fleet or a store.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import (
    BackendUnavailableError,
    HelloRefusedError,
    ServiceBusyError,
)
from repro.sweep.dist.protocol import dump_busy
from repro.sweep.dist.service import ServiceClient
from repro.transport import resp
from repro.transport.redis_backend import MiniRedisConnection
from repro.transport.resp import ServerReplyError
from repro.transport.server import RespTcpServer


class ScriptedServer(RespTcpServer):
    """Answers each command from a per-command script of encoded replies.

    A script is consumed front to back and its last reply repeats;
    unscripted HELLO answers ``{}`` and PING ``PONG``.
    """

    def __init__(self, script=None, **kwargs):
        super().__init__(name="scripted", **kwargs)
        self.script = {name: list(replies) for name, replies in (script or {}).items()}
        self.calls = []

    def _dispatch(self, name, args):
        self.calls.append(name)
        replies = self.script.get(name)
        if replies:
            return replies.pop(0) if len(replies) > 1 else replies[0]
        if name == "HELLO":
            return resp.encode_bulk(b"{}")
        if name == "PING":
            return resp.encode_simple("PONG")
        return resp.encode_error(f"unknown command '{name}'")

    def cut_connections(self):
        for conn in list(self._open_conns):
            conn.shutdown(socket.SHUT_RDWR)


def busy(hint=None, reason="scripted"):
    return resp.encode_busy(dump_busy(reason, hint))


def free_port():
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


class RecordingStop(threading.Event):
    """A stop event that records (when, timeout) of every wait."""

    def __init__(self):
        super().__init__()
        self.waits = []

    def wait(self, timeout=None):
        self.waits.append((time.monotonic(), timeout))
        return super().wait(timeout)


@pytest.fixture
def scripted():
    servers = []

    def make(script=None, **kwargs):
        servers.append(ScriptedServer(script, **kwargs).start())
        return servers[-1]

    yield make
    for server in servers:
        server.stop()


def test_refused_connect_then_success_counts_one_reconnect():
    port = free_port()
    client = ServiceClient(f"127.0.0.1:{port}", reconnect_budget=10.0)
    servers = []

    def start_late():
        time.sleep(0.3)
        servers.append(ScriptedServer(port=port).start())

    starter = threading.Thread(target=start_late, daemon=True)
    starter.start()
    try:
        assert client.ping()
        assert client.reconnects == 1
        assert client.ping()  # the kept connection: no new reconnect
        assert client.reconnects == 1
    finally:
        starter.join(timeout=5)
        client.close()
        for server in servers:
            server.stop()


def test_busy_hint_is_waited_and_recorded(scripted):
    server = scripted({"PING": [busy(0.2), resp.encode_simple("PONG")]})
    with ServiceClient(server.address) as client:
        start = time.monotonic()
        assert client.ping()
        assert time.monotonic() - start >= 0.2
        assert client.busy_refusals == 1
        assert client.last_busy == {"reason": "scripted", "retry_after_s": 0.2}


def test_err_reply_is_raised_at_once(scripted):
    server = scripted({"PING": [resp.encode_error("no such thing")]})
    with ServiceClient(server.address, reconnect_budget=30.0) as client:
        start = time.monotonic()
        with pytest.raises(ServerReplyError, match="no such thing"):
            client.ping()
        assert time.monotonic() - start < 1.0
        assert server.calls == ["PING"] and client.busy_refusals == 0


def test_budget_exhaustion_raises_the_last_failure(scripted):
    dead = ServiceClient(f"127.0.0.1:{free_port()}", reconnect_budget=0.3)
    start = time.monotonic()
    with pytest.raises(BackendUnavailableError):
        dead.ping()
    assert 0.3 <= time.monotonic() - start < 1.5

    server = scripted({"PING": [busy(0.05, reason="full")]})
    with ServiceClient(server.address, reconnect_budget=0.3) as client:
        with pytest.raises(ServiceBusyError) as err:
            client.ping()
    assert err.value.reason == "full" and err.value.retry_after_s == 0.05
    assert client.busy_refusals >= 2


def test_no_wait_overshoots_the_remaining_budget(scripted):
    budget = 0.5
    for address, script in (
        (f"127.0.0.1:{free_port()}", None),  # connection-class backoff
        (None, {"PING": [busy(5.0)]}),  # a hint far past the budget
    ):
        address = address or scripted(script).address
        stop = RecordingStop()
        client = ServiceClient(address, reconnect_budget=budget, stop=stop)
        start = time.monotonic()
        with pytest.raises((BackendUnavailableError, ServiceBusyError)):
            client.ping()
        client.close()
        assert stop.waits
        for when, timeout in stop.waits:
            assert when + timeout <= start + budget + 0.01
        assert time.monotonic() - start < budget + 0.5


def test_stop_event_ends_a_wait_at_once(scripted):
    server = scripted({"PING": [busy(10.0)]})
    stop = threading.Event()
    set_at = []

    def stop_later():
        time.sleep(0.2)
        set_at.append(time.monotonic())
        stop.set()

    setter = threading.Thread(target=stop_later, daemon=True)
    setter.start()
    with ServiceClient(server.address, reconnect_budget=30.0, stop=stop) as client:
        with pytest.raises(ServiceBusyError):
            client.ping()
    assert time.monotonic() - set_at[0] < 0.1
    setter.join(timeout=5)


def test_hello_is_replayed_on_every_new_connection(scripted):
    server = scripted()
    with ServiceClient(server.address, hello=("w1", json.dumps({"pid": 1}))) as client:
        assert client.ping()
        assert client.ping()
        assert server.calls == ["HELLO", "PING", "PING"]
        server.cut_connections()
        assert client.ping()  # the kept connection died: reopen + HELLO
        assert server.calls == ["HELLO", "PING", "PING", "HELLO", "PING"]
        assert client.reconnects == 1


def test_hello_err_is_raised_as_refused(scripted):
    server = scripted({"HELLO": [resp.encode_error("version mismatch")]})
    client = ServiceClient(server.address, reconnect_budget=30.0, hello=("w1", "{}"))
    start = time.monotonic()
    with pytest.raises(HelloRefusedError, match="version mismatch"):
        client.ping()
    assert time.monotonic() - start < 1.0
    assert server.calls == ["HELLO"]


def test_client_refused_at_accept_gets_through_once_a_slot_frees(scripted):
    server = scripted(max_connections=1)
    holder = MiniRedisConnection(server.host, server.port)
    assert holder.command("PING") == "PONG"  # holds the only slot

    def free_slot():
        time.sleep(0.3)
        holder.close()

    freer = threading.Thread(target=free_slot, daemon=True)
    freer.start()
    with ServiceClient(server.address, reconnect_budget=10.0) as client:
        assert client.ping()
        # The refusal reads as -BUSY or, when the close wins the race,
        # as a lost connection; either way the client reconnected.
        assert client.reconnects >= 1
        if client.busy_refusals:
            assert "connection limit" in client.last_busy["detail"]
    freer.join(timeout=5)
    assert server.refused_connections >= 1


# -- the worker's rules on top of the client ---------------------------------
def test_worker_refused_at_hello_exits_one(scripted):
    import signal

    from repro.sweep.dist import run_worker_process

    server = scripted({"HELLO": [resp.encode_error("version mismatch")]})
    previous = signal.getsignal(signal.SIGTERM)
    try:
        code = run_worker_process(server.address, reconnect_budget=5.0, quiet=True)
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert code == 1
    assert server.calls == ["HELLO"]


def test_worker_never_gives_up_over_a_busy_claim(scripted):
    from repro.sweep.dist import WorkerAgent, WorkerOptions

    server = scripted({"CLAIM": [busy(0.01)]})
    agent = WorkerAgent(
        server.address, WorkerOptions(poll=0.02, reconnect_budget=0.2)
    )
    thread = threading.Thread(target=agent.run, daemon=True)
    thread.start()
    time.sleep(1.0)  # five budgets' worth of -BUSY
    agent.request_drain()
    thread.join(timeout=5)
    assert agent.report.drained and not agent.report.gave_up
    assert agent.report.busy >= 5
    assert server.calls.count("HELLO") == 1  # one connection throughout
