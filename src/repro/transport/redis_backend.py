"""A from-scratch Redis stand-in: TCP key-value server + client.

The paper's Redis backend (via SmartSim) is a production in-memory store;
this module reproduces its architecturally relevant properties:

* a real TCP server speaking RESP (the shared
  :class:`~repro.transport.server.RespTcpServer` substrate, also reused
  by the distributed sweep service);
* **single-threaded command execution** — connections are accepted and
  parsed concurrently, but commands funnel through one executor lock, the
  same serialization point that caps real Redis throughput under
  concurrent clients (one reason the paper finds Redis the slowest
  in-memory option);
* cluster deployment: several independent servers with client-side key
  sharding (CRC32, like the real Redis Cluster's CRC16 slots).

Commands implemented: PING, SET, GET, DEL, EXISTS, KEYS, DBSIZE, FLUSHDB.
"""

from __future__ import annotations

import threading
from typing import Any, Optional

from repro.errors import (
    BackendUnavailableError,
    KeyNotStagedError,
    ServerError,
    TransportError,
)
from repro.transport import resp
from repro.transport.base import DataStoreClient
from repro.transport.kvfile import crc32_shard
from repro.transport.serializer import deserialize, serialize_parts
from repro.transport.server import Reply, RespTcpServer
from repro.transport.wire import Blob, Buffer, connect, nbytes, send_parts


class MiniRedisServer(RespTcpServer):
    """A single store instance listening on (host, port).

    The TCP/RESP serving loop lives in :class:`RespTcpServer`; this class
    is only the Redis command vocabulary over one in-memory dict. The
    base class's execution lock is exactly Redis's single-threaded
    command execution.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        super().__init__(host=host, port=port, name="miniredis")
        # Values are kept as received (a bytearray for large ones) and only
        # ever replaced: GET replies are sent from them outside the lock.
        self._data: dict[bytes, Buffer] = {}

    def dbsize(self) -> int:
        with self._exec_lock:
            return len(self._data)

    # -- command execution -------------------------------------------------------
    def _dispatch(self, name: str, args: list) -> Reply:
        if name == "PING":
            return resp.encode_simple("PONG")
        if name == "SET":
            self._need(args, 2, "SET")
            self._data[bytes(args[0])] = args[1]
            return resp.encode_simple("OK")
        if name == "GET":
            self._need(args, 1, "GET")
            return resp.encode_bulk(self._data.get(bytes(args[0])))
        if name == "DEL":
            if not args:
                raise TransportError("wrong number of arguments for 'DEL'")
            removed = sum(1 for a in args if self._data.pop(bytes(a), None) is not None)
            return resp.encode_integer(removed)
        if name == "EXISTS":
            self._need(args, 1, "EXISTS")
            return resp.encode_integer(int(bytes(args[0]) in self._data))
        if name == "KEYS":
            self._need(args, 1, "KEYS")
            pattern = bytes(args[0])
            if pattern == b"*":
                keys = sorted(self._data)
            elif pattern.endswith(b"*"):
                prefix = pattern[:-1]
                keys = sorted(k for k in self._data if k.startswith(prefix))
            else:
                keys = [pattern] if pattern in self._data else []
            return resp.encode_array(keys)
        if name == "DBSIZE":
            return resp.encode_integer(len(self._data))
        if name == "FLUSHDB":
            self._data.clear()
            return resp.encode_simple("OK")
        raise TransportError(f"unknown command '{name}'")


class MiniRedisConnection:
    """One client connection with request/response framing."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        try:
            self._sock = connect(host, port, timeout)
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        self._parser = resp.RespParser()
        self._lock = threading.Lock()

    def command(self, *parts) -> Any:
        with self._lock:
            try:
                send_parts(self._sock, resp.encode_command_parts(*parts))
                while True:
                    found, reply = self._parser.pop_frame()
                    if found:
                        return reply
                    if not self._parser.recv_from(self._sock):
                        raise BackendUnavailableError("connection closed by server")
            except OSError as exc:
                raise BackendUnavailableError(f"redis connection failed: {exc}") from exc

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class MiniRedisClient:
    """High-level client over one or more (clustered) servers."""

    def __init__(self, addresses: list[str], timeout: float = 30.0) -> None:
        if not addresses:
            raise ServerError("need at least one server address")
        self.addresses = list(addresses)
        self._connections: list[Optional[MiniRedisConnection]] = [None] * len(addresses)
        self.timeout = timeout

    def _connection(self, shard: int) -> MiniRedisConnection:
        conn = self._connections[shard]
        if conn is None:
            host, port_text = self.addresses[shard].rsplit(":", 1)
            conn = MiniRedisConnection(host, int(port_text), timeout=self.timeout)
            self._connections[shard] = conn
        return conn

    def _shard_for(self, key: str) -> int:
        return crc32_shard(key, len(self.addresses))

    # -- commands ----------------------------------------------------------
    def ping(self) -> bool:
        return all(
            self._connection(i).command("PING") == "PONG"
            for i in range(len(self.addresses))
        )

    def set(self, key: str, blob: Blob) -> None:
        reply = self._connection(self._shard_for(key)).command("SET", key, blob)
        if reply != "OK":
            raise ServerError(f"SET failed: {reply!r}")

    def get(self, key: str) -> Optional[Buffer]:
        return self._connection(self._shard_for(key)).command("GET", key)

    def delete(self, *keys: str) -> int:
        removed = 0
        by_shard: dict[int, list[str]] = {}
        for key in keys:
            by_shard.setdefault(self._shard_for(key), []).append(key)
        for shard, shard_keys in by_shard.items():
            removed += self._connection(shard).command("DEL", *shard_keys)
        return removed

    def exists(self, key: str) -> bool:
        return bool(self._connection(self._shard_for(key)).command("EXISTS", key))

    def keys(self, pattern: str = "*") -> list[str]:
        found: list[str] = []
        for i in range(len(self.addresses)):
            found += [k.decode("utf-8") for k in self._connection(i).command("KEYS", pattern)]
        return sorted(found)

    def flushdb(self) -> None:
        for i in range(len(self.addresses)):
            self._connection(i).command("FLUSHDB")

    def close(self) -> None:
        for conn in self._connections:
            if conn is not None:
                conn.close()
        self._connections = [None] * len(self.addresses)


class RedisStoreClient(DataStoreClient):
    """DataStore client API over the mini-Redis cluster."""

    backend_name = "redis"

    def __init__(self, addresses: list[str], **kwargs) -> None:
        super().__init__(**kwargs)
        self.client = MiniRedisClient(addresses)

    def _write(self, key: str, value: Any) -> float:
        parts = serialize_parts(value)
        self.client.set(key, parts)
        return float(sum(map(nbytes, parts)))

    def _read(self, key: str) -> tuple[Any, float]:
        blob = self.client.get(key)
        if blob is None:
            raise KeyNotStagedError(key, backend="redis")
        return deserialize(blob), float(len(blob))

    def _poll(self, key: str) -> bool:
        return self.client.exists(key)

    def _clean(self, keys: Optional[list[str]]) -> int:
        if keys is None:
            count = len(self.client.keys("*"))
            self.client.flushdb()
            return count
        if not keys:
            return 0
        return self.client.delete(*keys)

    def close(self) -> None:
        self.client.close()
