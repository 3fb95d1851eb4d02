"""Tests for the socket helpers every wire protocol shares."""

import socket
import threading
import time

import pytest

from repro.transport.wire import as_parts, recv_exact, send_parts


@pytest.fixture
def pair():
    ours, theirs = socket.socketpair()
    yield ours, theirs
    ours.close()
    theirs.close()


def _drain(sock, into: bytearray) -> None:
    while True:
        chunk = sock.recv(1 << 16)
        if not chunk:
            return
        into += chunk


def test_send_parts_equals_sendall_of_the_join(pair):
    ours, theirs = pair
    big = bytes(range(256)) * 8192  # 2 MiB: far more than one sendmsg moves
    parts = [b"head", b"", memoryview(big), bytearray(b"tail")]
    received = bytearray()
    reader = threading.Thread(target=_drain, args=(theirs, received))
    reader.start()
    send_parts(ours, parts)
    ours.shutdown(socket.SHUT_WR)
    reader.join(timeout=10.0)
    assert received == b"head" + big + b"tail"


def test_send_parts_of_nothing_sends_nothing(pair):
    ours, theirs = pair
    send_parts(ours, [b"", bytearray()])
    theirs.setblocking(False)
    with pytest.raises(BlockingIOError):
        theirs.recv(1)


def test_send_parts_timeout_bounds_the_whole_send(pair):
    """A peer that keeps draining a little (so every single ``sendmsg``
    makes progress within the timeout) is still cut off at the deadline:
    the slow-loris write bound is on the reply, not on each call."""
    ours, theirs = pair
    ours.settimeout(0.5)
    stop = threading.Event()

    def trickle():
        while not stop.is_set():
            try:
                theirs.recv(4096)
            except OSError:
                return
            time.sleep(0.05)

    reader = threading.Thread(target=trickle, daemon=True)
    reader.start()
    start = time.monotonic()
    try:
        with pytest.raises(socket.timeout):
            send_parts(ours, [b"h", memoryview(bytes(64 * 1024 * 1024))])
        elapsed = time.monotonic() - start
    finally:
        stop.set()
    assert 0.4 <= elapsed < 2.0
    assert ours.gettimeout() == 0.5  # restored for the connection's next use


def test_recv_exact_fills_one_owned_buffer(pair):
    ours, theirs = pair
    payload = bytes(range(256)) * 1024

    def dribble():
        for at in range(0, len(payload), 50_000):
            theirs.sendall(payload[at : at + 50_000])
            time.sleep(0.001)

    sender = threading.Thread(target=dribble)
    sender.start()
    got = recv_exact(ours, len(payload))
    sender.join()
    assert isinstance(got, bytearray) and got == payload
    got.append(1)  # no exported views are left behind: the buffer is resizable
    assert recv_exact(ours, 0) == b""


def test_recv_exact_peer_closing_mid_frame_is_a_connection_error(pair):
    ours, theirs = pair
    theirs.sendall(b"abc")
    theirs.close()
    with pytest.raises(ConnectionError, match="3 of 10"):
        recv_exact(ours, 10)


def test_as_parts():
    blob = b"x"
    assert as_parts(blob) == (blob,)
    assert as_parts((b"a", b"b")) == (b"a", b"b")
