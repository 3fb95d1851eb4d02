"""Server-side transport substrate: RESP TCP serving + ServerManager.

Two layers live here:

* :class:`RespTcpServer` — a generic threaded server speaking RESP (see
  :mod:`repro.transport.resp`) on a :class:`~repro.transport.wire.Listener`
  (a TCP port and its same-host Unix-socket twin): per-connection reader
  threads, incremental frame parsing, and serialized command dispatch.
  :class:`~repro.transport.redis_backend.MiniRedisServer` (the mini-Redis
  backend) and :class:`~repro.sweep.dist.service.SweepService` (the
  distributed sweep's control plane) are both subclasses that only
  implement ``_dispatch``.
* :class:`ServerManager` — deploys and configures data servers (paper
  §3.2): "The ServerManager is responsible for the creation and
  configuration of data servers, while the DataStore exposes a uniform
  client API."

ServerManager backend-specific setup:

* ``redis`` / ``dragon`` — starts ``n_shards`` in-memory server instances
  (as a client-sharded cluster) and reports their addresses;
* ``node-local`` / ``filesystem`` — establishes the shard directory
  structure under the configured path.

``get_server_info()`` returns a plain JSON-able dict that is handed to
components (possibly across process boundaries) for DataStore
construction.
"""

from __future__ import annotations

import shutil
import socket
import tempfile
import threading
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.errors import ServerError, TransportError
from repro.transport import resp
from repro.transport.wire import Blob, Listener, as_parts, send_parts

if TYPE_CHECKING:  # pragma: no cover
    from repro.config.schema import ServerConfig

#: What ``_dispatch`` returns: one encoded reply, or its pieces when a
#: large value rides along uncopied (``resp.encode_bulk``).
Reply = Blob


class _DispatchSlot:
    """One command waiting for the dispatch lock (shed-policy bookkeeping)."""

    __slots__ = ("name", "sheddable", "shed")

    def __init__(self, name: str, sheddable: bool) -> None:
        self.name = name
        self.sheddable = sheddable
        self.shed = False


#: Sentinel returned by ``_admit`` when a command is refused outright.
_REFUSED = object()


class RespTcpServer:
    """Threaded TCP server speaking RESP; subclasses implement ``_dispatch``.

    Connections are accepted and parsed concurrently (one reader thread
    per connection), but command execution funnels through one lock, so
    ``_dispatch`` implementations may mutate shared state without their
    own locking. Protocol errors are answered with ``-ERR`` replies;
    :class:`~repro.errors.TransportError` raised by ``_dispatch`` becomes
    an error reply instead of killing the connection, and so does any
    unexpected exception (answered as ``-ERR internal ...``) — a client
    mid-protocol always gets a reply, never a torn-down socket.

    Everything a peer can consume is boundable (all off by default, so
    plain subclasses behave exactly as before):

    * ``max_connections`` — connections past the cap are answered with a
      typed ``-BUSY`` line and closed at accept, instead of the old
      accept-until-fd-exhaustion behavior.
    * ``idle_timeout`` — a connection that sends nothing for this long is
      closed (half-open connects cannot pin reader threads forever).
    * ``write_timeout`` — a client that stops *reading* its reply (slow
      loris) is disconnected once the send stalls this long; replies
      are sent outside the dispatch lock, so a stalled send never blocks
      other connections' commands either way — the deadline reclaims the
      pinned thread and its buffered reply.
    * ``dispatch_queue_limit`` — bounds commands *waiting* for the
      dispatch lock. When the queue is full, an arriving sheddable
      command (per ``_sheddable``; read-only status/query traffic) is
      refused with ``-BUSY``; an arriving protected command (durability
      acks like DONE) is always admitted and instead sheds the oldest
      waiting sheddable command. Protected commands are never dropped.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        name: str = "resp",
        max_frame_bytes: Optional[int] = None,
        max_connections: Optional[int] = None,
        idle_timeout: Optional[float] = None,
        write_timeout: Optional[float] = None,
        dispatch_queue_limit: Optional[int] = None,
    ) -> None:
        self.name = name
        #: Per-connection bulk-string frame cap (None = resp module
        #: default). A violating frame is answered with ``-ERR`` and the
        #: connection is closed — never buffered.
        self.max_frame_bytes = max_frame_bytes
        self.max_connections = max_connections
        self.idle_timeout = idle_timeout
        self.write_timeout = write_timeout
        self.dispatch_queue_limit = dispatch_queue_limit
        self._exec_lock = threading.Lock()  # serialized command execution
        self._queue_lock = threading.Lock()
        self._dispatch_pending: list[_DispatchSlot] = []
        #: Overload counters (monotonic; read without locks for health).
        self.refused_connections = 0
        self.idle_disconnects = 0
        self.stalled_disconnects = 0
        self.shed_commands = 0
        self._listener = Listener(host, port)
        self.host, self.port = self._listener.host, self._listener.port
        self._open_conns = self._listener.conns
        self._running = threading.Event()
        self.commands_served = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "RespTcpServer":
        if self._running.is_set():
            raise ServerError("server already started")
        self._running.set()
        self._listener.start(self._serve_connection, self.name, admit=self._accept_connection)
        return self

    def stop(self) -> None:
        self._running.clear()
        self._listener.close()

    def __enter__(self) -> "RespTcpServer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def is_running(self) -> bool:
        return self._running.is_set()

    # -- connection handling ------------------------------------------------
    @property
    def local_connections(self) -> int:
        """Connections that arrived over the same-host twin (monotonic)."""
        return self._listener.local_connections

    def _accept_connection(self, conn: socket.socket) -> bool:
        """Accept-thread gate: past ``max_connections`` answer ``-BUSY``."""
        if self.max_connections is None or len(self._open_conns) < self.max_connections:
            conn.settimeout(self.idle_timeout)  # None = block indefinitely
            return True
        self.refused_connections += 1
        try:
            conn.settimeout(1.0)
            conn.sendall(
                resp.encode_busy(f"connection limit {self.max_connections} reached")
            )
        except OSError:
            pass
        return False

    def _send_reply(self, conn: socket.socket, reply: Reply) -> bool:
        """Send one reply under the write deadline; False = give up on peer.

        The slow-loris defense: a client that stops draining its receive
        buffer makes the send block once the kernel buffers fill; the
        deadline (which ``send_parts`` applies to the whole reply, not to
        each call) turns that into a disconnect instead of a
        forever-pinned thread holding the buffered reply.
        """
        if self.write_timeout is not None:
            try:
                conn.settimeout(self.write_timeout)
            except OSError:
                return False
        try:
            send_parts(conn, as_parts(reply))
            return True
        except socket.timeout:
            self.stalled_disconnects += 1
            return False
        except OSError:
            return False
        finally:
            if self.write_timeout is not None:
                try:
                    conn.settimeout(self.idle_timeout)
                except OSError:
                    pass

    def _serve_connection(self, conn: socket.socket) -> None:
        parser = resp.RespParser(max_bulk_bytes=self.max_frame_bytes)
        while self._running.is_set():
            try:
                received = parser.recv_from(conn)
            except socket.timeout:
                self.idle_disconnects += 1
                break
            except OSError:
                break
            if not received:
                break
            while True:
                try:
                    message = parser.pop()
                except TransportError as exc:
                    self._send_reply(conn, resp.encode_error(str(exc)))
                    return
                if message is None:
                    break
                reply = self._execute(message)
                if not self._send_reply(conn, reply):
                    return

    # -- command execution ---------------------------------------------------
    def dispatch_backlog(self) -> int:
        """Commands currently waiting for the dispatch lock."""
        with self._queue_lock:
            return len(self._dispatch_pending)

    def _admit(self, name: str):
        """Bounded-queue admission; a slot, ``_REFUSED``, or None (unbounded).

        Deterministic shed policy when the queue is full: an arriving
        *sheddable* command is refused on the spot (the cheapest outcome —
        no queueing, no lock); an arriving *protected* command is always
        admitted and marks the **oldest** still-unshed sheddable waiter as
        shed instead (it bounces with ``-BUSY`` the moment it reaches the
        lock, without executing). DONE-class commands therefore never wait
        behind more than ``dispatch_queue_limit`` peers' worth of reads and
        are never dropped.
        """
        if self.dispatch_queue_limit is None:
            return None
        slot = _DispatchSlot(name, self._sheddable(name))
        with self._queue_lock:
            if len(self._dispatch_pending) >= self.dispatch_queue_limit:
                if slot.sheddable:
                    self.shed_commands += 1
                    return _REFUSED
                for waiting in self._dispatch_pending:
                    if waiting.sheddable and not waiting.shed:
                        waiting.shed = True
                        self.shed_commands += 1
                        break
            self._dispatch_pending.append(slot)
        return slot

    def _execute(self, message: Any) -> Reply:
        if not isinstance(message, list) or not message:
            return resp.encode_error("protocol: expected a command array")
        command = message[0]
        if not isinstance(command, bytes):
            return resp.encode_error("protocol: command must be a bulk string")
        name = command.decode("utf-8", "replace").upper()
        args = message[1:]
        try:
            fast = self._dispatch_unlocked(name, args)
        except TransportError as exc:
            return resp.encode_error(str(exc))
        except Exception as exc:
            return resp.encode_error(
                f"internal {type(exc).__name__} in '{name}': {exc}"
            )
        if fast is not None:
            return fast
        slot = self._admit(name)
        if slot is _REFUSED:
            return self._busy_reply(name)
        with self._exec_lock:  # commands execute one at a time
            if slot is not None:
                with self._queue_lock:
                    try:
                        self._dispatch_pending.remove(slot)
                    except ValueError:
                        pass
                if slot.shed:
                    return self._busy_reply(name)
            self.commands_served += 1
            try:
                return self._dispatch(name, args)
            except TransportError as exc:
                return resp.encode_error(str(exc))
            except Exception as exc:
                # A handler bug (or a command racing server shutdown)
                # must not kill the connection thread mid-protocol: the
                # client would burn its reconnect budget retrying a
                # socket that silently drops every submission.
                return resp.encode_error(
                    f"internal {type(exc).__name__} in '{name}': {exc}"
                )

    def _dispatch(self, name: str, args: list) -> Reply:
        """Handle one command; subclasses must implement.

        Arguments arrive as the parser produced them (large ones as
        ``bytearray``); a handler that keeps one must treat it as
        immutable — replies may be sent from it while it is stored.
        """
        raise NotImplementedError

    def _dispatch_unlocked(self, name: str, args: list) -> Optional[bytes]:
        """Optional lock-free fast path, tried before queue admission.

        Subclasses may answer latency-critical read-only commands here
        (e.g. a health probe) so they stay responsive while the dispatch
        lock is contended. Return None to fall through to ``_dispatch``.
        """
        return None

    def _sheddable(self, name: str) -> bool:
        """Whether a command may be shed under queue pressure (default: no)."""
        return False

    def _busy_reply(self, name: str) -> bytes:
        """The ``-BUSY`` reply for a shed command; subclasses may add hints."""
        return resp.encode_busy(f"dispatch queue full, '{name}' shed")

    @staticmethod
    def _need(args: list, n: int, command: str) -> None:
        if len(args) != n:
            raise TransportError(f"wrong number of arguments for '{command}'")


class ServerManager:
    """Owns the lifecycle of one data-transport deployment.

    The config schema and the file store load when a manager is built
    or started, not with this module: the sweep service imports it for
    :class:`RespTcpServer` alone and never pays for them.
    """

    def __init__(
        self,
        name: str,
        config: Union[ServerConfig, Mapping[str, Any], str, None] = None,
    ) -> None:
        from repro.config.loader import load_server_config
        from repro.config.schema import ServerConfig

        self.name = name
        if config is None:
            config = ServerConfig()
        elif not isinstance(config, ServerConfig):
            config = load_server_config(config)
        self.config = config
        self._running = False
        self._servers: list[Any] = []
        self._path: Optional[Path] = None
        self._owns_path = False

    # -- lifecycle --------------------------------------------------------
    def start_server(self) -> "ServerManager":
        if self._running:
            raise ServerError(f"server {self.name!r} already running")
        backend = self.config.backend
        if backend in ("node-local", "filesystem"):
            self._start_file_backend()
        elif backend == "redis":
            # Imported lazily: the backend modules build on RespTcpServer
            # above, so a module-level import would be circular.
            from repro.transport.redis_backend import MiniRedisServer

            self._servers = [
                MiniRedisServer(host=self.config.host, port=0).start()
                for _ in range(self.config.n_shards)
            ]
        elif backend == "dragon":
            from repro.transport.dragon_backend import DragonShardServer

            self._servers = [
                DragonShardServer(host=self.config.host, port=0).start()
                for _ in range(self.config.n_shards)
            ]
        else:  # pragma: no cover - ServerConfig already validates
            raise ServerError(f"unknown backend {backend!r}")
        self._running = True
        return self

    def _start_file_backend(self) -> None:
        from repro.transport.kvfile import ShardedFileStore

        if self.config.path:
            self._path = Path(self.config.path)
            self._owns_path = False
        else:
            self._path = Path(
                tempfile.mkdtemp(prefix=f"simaibench-{self.config.backend}-")
            )
            self._owns_path = True
        # Establish the shard directory structure.
        ShardedFileStore(self._path, n_shards=self.config.n_shards)

    def stop_server(self) -> None:
        if not self._running:
            return
        for server in self._servers:
            server.stop()
        self._servers = []
        if self._path is not None and self._owns_path:
            shutil.rmtree(self._path, ignore_errors=True)
        self._path = None
        self._running = False

    def __enter__(self) -> "ServerManager":
        return self.start_server() if not self._running else self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop_server()

    @property
    def is_running(self) -> bool:
        return self._running

    # -- info ----------------------------------------------------------------
    def get_server_info(self) -> dict[str, Any]:
        """Connection info for DataStore clients (JSON-able)."""
        if not self._running:
            raise ServerError(f"server {self.name!r} is not running")
        backend = self.config.backend
        info: dict[str, Any] = {"backend": backend, "name": self.name}
        if backend in ("node-local", "filesystem"):
            assert self._path is not None
            info["path"] = str(self._path)
            info["n_shards"] = self.config.n_shards
            if backend == "filesystem":
                info["stripe_size_mb"] = self.config.stripe_size_mb
                info["stripe_count"] = self.config.stripe_count
        else:
            info["addresses"] = [server.address for server in self._servers]
        if self.config.chaos:
            info["chaos"] = dict(self.config.chaos)
        if self.config.resilience:
            info["resilience"] = dict(self.config.resilience)
        return info
