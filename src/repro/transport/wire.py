"""Socket I/O shared by every wire protocol in this package.

RESP (mini-Redis, the sweep service), the dragon binary protocol and the
streaming transport all move a small header next to a payload that can
be tens of MiB. Both helpers keep the payload out of Python-level
copies: :func:`send_parts` hands the kernel views of the caller's own
buffers, :func:`recv_exact` lets the kernel fill the buffer that becomes
the result. Such a buffer comes from :func:`landing`, which does not
zero-fill what the kernel is about to overwrite.

They also share how a connection comes to be: every server port is one
:class:`Listener` (TCP on ``host:port`` plus a same-host Unix-socket
twin named after it) and every client dials with :func:`connect`, which
takes the twin when the server is on this host and TCP otherwise.
"""

from __future__ import annotations

import functools
import os
import selectors
import socket
import sys
import threading
import time
from typing import Callable, Optional, Sequence, Union

from repro.errors import ServerError

Buffer = Union[bytes, bytearray, memoryview]
#: A value on its way out: one buffer, or the pieces whose concatenation
#: it is (``serializer.serialize_parts``), so that nobody has to join them.
Blob = Union[Buffer, Sequence[Buffer]]


def as_parts(blob: Blob) -> Sequence[Buffer]:
    return blob if isinstance(blob, (tuple, list)) else (blob,)


def nbytes(buffer: Buffer) -> int:
    return buffer.nbytes if isinstance(buffer, memoryview) else len(buffer)


#: Sends smaller than this in total are joined first: copying a few KiB
#: costs less than a scatter-gather call, and ``sendall`` then does the rest.
#: Receive buffers this large skip the zero-fill (:func:`landing`);
#: ``resp.DIRECT_BULK_BYTES`` is the same 64 KiB.
_JOIN_BELOW = 1 << 16


def landing(n: int) -> bytearray:
    """A writable buffer of ``n`` bytes whose contents the caller will overwrite.

    Below :data:`_JOIN_BELOW` it is ``bytearray(n)``. From there up it is
    a ``bytearray`` whose bytes are left as malloc gave them: zero-filling
    would write every page once before the kernel writes it again.
    """
    if n < _JOIN_BELOW:
        return bytearray(n)
    return _unfilled_bytearray()(None, n)


@functools.cache
def _unfilled_bytearray() -> Callable[[None, int], bytearray]:
    # CPython's PyByteArray_FromStringAndSize(NULL, n) allocates without
    # writing (its pickle module lands BYTEARRAY8 frames that way). The
    # result is an ordinary bytearray, so every consumer keeps its type:
    # ``.decode``, ``json.loads`` and ``int`` refuse a memoryview.
    try:
        import ctypes

        return ctypes.PYFUNCTYPE(ctypes.py_object, ctypes.c_char_p, ctypes.c_ssize_t)(
            ("PyByteArray_FromStringAndSize", ctypes.pythonapi)
        )
    except (ImportError, AttributeError):  # no ctypes, or not CPython
        return lambda _, n: bytearray(n)


def send_parts(sock: socket.socket, parts: Sequence[Buffer]) -> None:
    """Send ``parts`` back to back, as ``sendall(b"".join(parts))`` would,
    without joining them when that would copy a large payload.

    Like ``sendall`` (and unlike a bare ``sendmsg``) the socket's timeout
    bounds the *whole* send: a peer that drains a few bytes per interval
    cannot keep the sender alive past the deadline. Raises
    ``socket.timeout`` when it passes; after any error the stream is in
    an unknown state and the connection must be dropped.
    """
    if len(parts) == 1:
        return sock.sendall(parts[0])
    if sum(map(nbytes, parts)) < _JOIN_BELOW:
        return sock.sendall(b"".join(parts))
    timeout = sock.gettimeout()
    deadline = None if timeout is None else time.monotonic() + timeout
    views = [memoryview(part).cast("B") for part in parts if nbytes(part)]
    try:
        while views:
            sent = sock.sendmsg(views)
            while views and sent >= views[0].nbytes:
                sent -= views.pop(0).nbytes
            if not views:
                return
            views[0] = views[0][sent:]
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise socket.timeout("timed out")
                sock.settimeout(remaining)
    finally:
        if deadline is not None:
            sock.settimeout(timeout)


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    """Receive exactly ``n`` bytes into one new :func:`landing` buffer
    (the caller owns it, and nothing else refers to it).

    A peer that closes first raises ``ConnectionError`` — an ``OSError``,
    so callers treat it like any other dead socket; a partly filled
    buffer is never returned.
    """
    buffer = landing(n)
    filled = sock.recv_into(buffer) if n else 0  # small frames arrive whole
    while filled < n:
        got = sock.recv_into(memoryview(buffer)[filled:])
        if not got:
            raise ConnectionError(f"connection closed mid-frame ({filled} of {n} bytes)")
        filled += got
    return buffer


# -- one listener, one dial ---------------------------------------------------
#: The twin lives in Linux's abstract socket namespace: no file to unlink,
#: gone with the last descriptor (a SIGKILLed server leaves nothing behind),
#: and scoped to the network namespace like the loopback port beside it.
_HAS_TWIN = sys.platform == "linux" and hasattr(socket, "AF_UNIX")


def _twin_name(host: str, port: int) -> str:
    return f"\0repro/{host}:{port}"


def _close(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass


def _nodelay(sock: socket.socket) -> None:
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    except OSError:
        pass  # already dead: the first send or receive says so


def connect(host: str, port: int, timeout: Optional[float]) -> socket.socket:
    """Dial ``host:port``: over its Unix-socket twin when a :class:`Listener`
    bound to exactly that ``host:port`` lives on this host, else over TCP.

    The match is on the text of the address (``localhost`` or a server
    bound to ``0.0.0.0`` is reached over TCP), so a proxy or a remote
    host is never bypassed. Raises ``OSError`` when TCP fails too.
    """
    if _HAS_TWIN:
        sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        try:
            sock.settimeout(timeout)
            sock.connect(_twin_name(host, port))
            return sock
        except OSError:
            sock.close()
    sock = socket.create_connection((host, port), timeout=timeout)
    _nodelay(sock)
    return sock


class _AcceptThread:
    """The process's one accept thread: every listening socket in one selector.

    One for all servers rather than one each, and it never exits. A thread
    that allocates owns a glibc arena, and the arena of an exited thread
    goes to the next new one, last out first in: accept threads that came
    and went with their servers traded arenas with the connection threads
    (whose arenas hold the staged values) on every restart, each bad trade
    ~50 MiB of resident set under a heap that is never trimmed. Sockets
    are (un)registered from other threads while ``select`` waits, which
    epoll and kqueue take in their stride, so ``Listener.close`` has
    nothing to wake and nothing to wait for.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._selector: Optional[selectors.BaseSelector] = None  # made with the thread

    def register(self, sock: socket.socket, on_ready: Callable[[socket.socket], None]) -> None:
        with self._lock:
            if self._selector is None:
                self._selector = selectors.DefaultSelector()
                threading.Thread(
                    target=self._run, args=(self._selector,), name="repro-accept", daemon=True
                ).start()
            self._selector.register(sock, selectors.EVENT_READ, on_ready)

    def unregister(self, sock: socket.socket) -> None:
        with self._lock:
            # Not ours when it was registered before a fork and closed in the child.
            if self._selector is not None and sock in self._selector.get_map():
                self._selector.unregister(sock)

    @staticmethod
    def _run(selector: selectors.BaseSelector) -> None:
        while True:
            for key, _ in selector.select():
                try:
                    key.data(key.fileobj)
                except Exception:  # one server's bug must not deafen the others
                    threading.excepthook(
                        threading.ExceptHookArgs((*sys.exc_info(), threading.current_thread()))
                    )


_accept_thread = _AcceptThread()


def _after_fork() -> None:
    global _accept_thread  # the child has the parent's selector but not its thread
    _accept_thread = _AcceptThread()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork)


class Listener:
    """One server port: TCP on ``host:port`` and its same-host twin.

    Every connection accepted on either socket is offered to ``admit``
    (on the accept thread) and, if taken, registered in :attr:`conns` and
    served by ``serve(conn)`` on its own thread; the connection is closed
    when ``serve`` returns.
    """

    def __init__(self, host: str, port: int) -> None:
        tcp = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            tcp.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            tcp.bind((host, port))
            tcp.listen(128)
        except OSError as exc:
            tcp.close()
            raise ServerError(f"cannot bind {host}:{port}: {exc}") from exc
        self.host, self.port = tcp.getsockname()
        self._socks = [tcp]
        if _HAS_TWIN:
            twin = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                twin.bind(_twin_name(self.host, self.port))
                twin.listen(128)
                self._socks.append(twin)
            except OSError:
                twin.close()  # clients fall back to TCP
        for sock in self._socks:
            sock.setblocking(False)  # a connection reset before accept() must not block it
        self._closed = False
        self._serve = self._admit = None
        self.lock = threading.Lock()
        self.conns: set[socket.socket] = set()
        self.threads: list[threading.Thread] = []
        #: Connections accepted on the twin (monotonic): is the fast path in use?
        self.local_connections = 0

    def start(
        self,
        serve: Callable[[socket.socket], None],
        name: str,
        admit: Optional[Callable[[socket.socket], bool]] = None,
    ) -> None:
        self._serve, self._admit, self._name = serve, admit, f"{name}-{self.port}"
        for sock in self._socks:
            _accept_thread.register(sock, self._accept)

    def _accept(self, sock: socket.socket) -> None:
        try:
            conn, _ = sock.accept()
        except OSError:
            return  # the peer gave up first, or close() got here first
        if sock.family == socket.AF_INET:
            _nodelay(conn)
        else:
            self.local_connections += 1
        conn.settimeout(None)
        admit = self._admit
        if admit is not None and not admit(conn):
            return _close(conn)
        with self.lock:
            if self._closed:
                return _close(conn)
            thread = threading.Thread(
                target=self._run, args=(self._serve, conn), name=self._name, daemon=True
            )
            self.conns.add(conn)  # before its thread can look: HEALTH counts itself
            try:
                thread.start()
            except RuntimeError:  # out of threads
                self.conns.discard(conn)
                raise
            self.threads = [t for t in self.threads if t.is_alive()]
            self.threads.append(thread)

    def _run(self, serve: Callable[[socket.socket], None], conn: socket.socket) -> None:
        try:
            serve(conn)
        finally:
            with self.lock:
                self.conns.discard(conn)
            _close(conn)

    def close(self) -> None:
        """Stop accepting, drop every open connection, join their threads."""
        with self.lock:
            if self._closed:
                return
            self._closed = True
            started = self._serve is not None
            self._serve = self._admit = None  # the server's bound methods: a cycle through us
            conns, threads = list(self.conns), self.threads
        for sock in self._socks:
            if started:
                _accept_thread.unregister(sock)
            _close(sock)
        for conn in conns:  # unblock connection threads sitting in recv()
            try:
                conn.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
        for thread in threads:
            thread.join(timeout=1.0)
