"""A DragonHPC-style distributed in-memory dictionary.

DragonHPC's ``DDict`` spreads key-value pairs over manager processes on
many nodes and serves requests in parallel. This stand-in reproduces that
architecture with real moving parts:

* N independent **shard servers** (TCP, a Unix socket on the same host);
  keys map to shards by CRC32;
* a compact length-prefixed **binary protocol** (cheaper per message than
  RESP's text framing — one reason dragon beats Redis on latency);
* **concurrent request execution** — each connection is served by its own
  thread and only dictionary mutation takes a short lock, unlike the
  mini-Redis global execution lock. Under 12 concurrent clients per node
  this is the second architectural advantage over Redis.

Frame format (little endian)::

    request:  u8 op | u32 key_len | key | u64 value_len | value
    response: u8 status | u64 payload_len | payload

ops: 1=PUT 2=GET 3=DEL 4=HAS 5=KEYS 6=CLEAR 7=PING
status: 0=ok 1=missing 2=error (payload = utf-8 message)

Every declared length is bounded by :data:`MAX_FRAME_BYTES` before a
buffer of that size is allocated: a shard answers an oversized request
with ``STATUS_ERROR`` and closes, a client drops the connection.
"""

from __future__ import annotations

import socket
import struct
import threading
from typing import Any, Optional

from repro.errors import (
    BackendUnavailableError,
    KeyNotStagedError,
    ServerError,
    TransportError,
)
from repro.transport.base import DataStoreClient
from repro.transport.kvfile import crc32_shard
from repro.transport.resp import MAX_BULK_BYTES as MAX_FRAME_BYTES
from repro.transport.serializer import deserialize, serialize_parts
from repro.transport.wire import (
    Blob,
    Buffer,
    Listener,
    as_parts,
    connect,
    nbytes,
    recv_exact,
    send_parts,
)

OP_PUT, OP_GET, OP_DEL, OP_HAS, OP_KEYS, OP_CLEAR, OP_PING = range(1, 8)
STATUS_OK, STATUS_MISSING, STATUS_ERROR = 0, 1, 2

_REQ_HEADER = struct.Struct("<BI")
_VAL_HEADER = struct.Struct("<Q")
_RESP_HEADER = struct.Struct("<BQ")

class DragonShardServer:
    """One shard of the distributed dictionary."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        # Values are kept as received and only ever replaced: GET replies
        # are sent from them after the lock is dropped.
        self._data: dict[str, Buffer] = {}
        self._data_lock = threading.Lock()  # short, per-mutation only
        self._listener = Listener(host, port)
        self.host, self.port = self._listener.host, self._listener.port
        self._running = threading.Event()
        self.requests_served = 0

    # -- lifecycle ----------------------------------------------------------
    def start(self) -> "DragonShardServer":
        if self._running.is_set():
            raise ServerError("shard already started")
        self._running.set()
        self._listener.start(self._serve_connection, "dragon-shard")
        return self

    def stop(self) -> None:
        self._running.clear()
        self._listener.close()

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    @property
    def local_connections(self) -> int:
        """Connections that arrived over the same-host twin (monotonic)."""
        return self._listener.local_connections

    def size(self) -> int:
        with self._data_lock:
            return len(self._data)

    # -- serving ------------------------------------------------------------
    def _serve_connection(self, conn: socket.socket) -> None:
        try:
            while self._running.is_set():
                op, key_len = _REQ_HEADER.unpack(recv_exact(conn, _REQ_HEADER.size))
                if key_len > MAX_FRAME_BYTES:
                    self._refuse(conn, f"key of {key_len} bytes")
                    break
                key = recv_exact(conn, key_len).decode("utf-8")
                (value_len,) = _VAL_HEADER.unpack(recv_exact(conn, _VAL_HEADER.size))
                if value_len > MAX_FRAME_BYTES:
                    self._refuse(conn, f"value of {value_len} bytes")
                    break
                value = recv_exact(conn, value_len)
                self.requests_served += 1
                status, payload = self._execute(op, key, value)
                send_parts(conn, (_RESP_HEADER.pack(status, len(payload)), payload))
        except OSError:
            pass  # the peer went away, between frames or inside one

    @staticmethod
    def _refuse(conn: socket.socket, what: str) -> None:
        message = f"{what} exceeds the {MAX_FRAME_BYTES}-byte frame limit".encode()
        send_parts(conn, (_RESP_HEADER.pack(STATUS_ERROR, len(message)), message))

    def _execute(self, op: int, key: str, value: Buffer) -> tuple[int, Buffer]:
        if op == OP_PING:
            return STATUS_OK, b"pong"
        if op == OP_PUT:
            with self._data_lock:
                self._data[key] = value
            return STATUS_OK, b""
        if op == OP_GET:
            with self._data_lock:
                blob = self._data.get(key)
            if blob is None:
                return STATUS_MISSING, b""
            return STATUS_OK, blob
        if op == OP_DEL:
            with self._data_lock:
                removed = self._data.pop(key, None) is not None
            return (STATUS_OK, b"1") if removed else (STATUS_MISSING, b"")
        if op == OP_HAS:
            with self._data_lock:
                present = key in self._data
            return STATUS_OK, b"1" if present else b"0"
        if op == OP_KEYS:
            with self._data_lock:
                keys = sorted(self._data)
            return STATUS_OK, "\x00".join(keys).encode("utf-8")
        if op == OP_CLEAR:
            with self._data_lock:
                count = len(self._data)
                self._data.clear()
            return STATUS_OK, str(count).encode("ascii")
        return STATUS_ERROR, f"unknown op {op}".encode()


class DragonConnection:
    """Client connection to one shard."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        try:
            self._sock = connect(host, port, timeout)
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot connect to {host}:{port}: {exc}"
            ) from exc
        self._lock = threading.Lock()

    def request(self, op: int, key: str = "", value: Blob = b"") -> tuple[int, bytearray]:
        key_blob = key.encode("utf-8")
        pieces = as_parts(value)
        parts = (
            _REQ_HEADER.pack(op, len(key_blob)),
            key_blob,
            _VAL_HEADER.pack(sum(map(nbytes, pieces))),
            *pieces,
        )
        with self._lock:
            try:
                send_parts(self._sock, parts)
                header = recv_exact(self._sock, _RESP_HEADER.size)
                status, payload_len = _RESP_HEADER.unpack(header)
                if payload_len > MAX_FRAME_BYTES:
                    # Nothing sane follows a header like that; the stream
                    # cannot be resynchronised.
                    self._sock.close()
                    raise BackendUnavailableError(
                        f"dragon reply declares {payload_len} bytes, over the "
                        f"{MAX_FRAME_BYTES}-byte frame limit"
                    )
                payload = recv_exact(self._sock, payload_len)
            except OSError as exc:
                raise BackendUnavailableError(f"dragon connection failed: {exc}") from exc
        if status == STATUS_ERROR:
            raise TransportError(payload.decode("utf-8", "replace"))
        return status, payload

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass


class DragonDictionary:
    """Client view of the whole distributed dictionary."""

    def __init__(self, addresses: list[str], timeout: float = 30.0) -> None:
        if not addresses:
            raise ServerError("need at least one shard address")
        self.addresses = list(addresses)
        self._connections: list[Optional[DragonConnection]] = [None] * len(addresses)
        self.timeout = timeout

    def _connection(self, shard: int) -> DragonConnection:
        conn = self._connections[shard]
        if conn is None:
            host, port_text = self.addresses[shard].rsplit(":", 1)
            conn = DragonConnection(host, int(port_text), timeout=self.timeout)
            self._connections[shard] = conn
        return conn

    def _shard_for(self, key: str) -> int:
        return crc32_shard(key, len(self.addresses))

    def ping(self) -> bool:
        return all(
            self._connection(i).request(OP_PING)[1] == b"pong"
            for i in range(len(self.addresses))
        )

    def put(self, key: str, blob: Blob) -> None:
        self._connection(self._shard_for(key)).request(OP_PUT, key, blob)

    def get(self, key: str) -> Optional[bytearray]:
        status, payload = self._connection(self._shard_for(key)).request(OP_GET, key)
        return None if status == STATUS_MISSING else payload

    def delete(self, key: str) -> bool:
        status, _ = self._connection(self._shard_for(key)).request(OP_DEL, key)
        return status == STATUS_OK

    def has(self, key: str) -> bool:
        _, payload = self._connection(self._shard_for(key)).request(OP_HAS, key)
        return payload == b"1"

    def keys(self) -> list[str]:
        found: list[str] = []
        for i in range(len(self.addresses)):
            _, payload = self._connection(i).request(OP_KEYS)
            if payload:
                found += payload.decode("utf-8").split("\x00")
        return sorted(found)

    def clear(self) -> int:
        total = 0
        for i in range(len(self.addresses)):
            _, payload = self._connection(i).request(OP_CLEAR)
            total += int(payload or b"0")
        return total

    def close(self) -> None:
        for conn in self._connections:
            if conn is not None:
                conn.close()
        self._connections = [None] * len(self.addresses)


class DragonStoreClient(DataStoreClient):
    """DataStore client API over the dragon distributed dictionary."""

    backend_name = "dragon"

    def __init__(self, addresses: list[str], **kwargs) -> None:
        super().__init__(**kwargs)
        self.ddict = DragonDictionary(addresses)

    def _write(self, key: str, value: Any) -> float:
        parts = serialize_parts(value)
        self.ddict.put(key, parts)
        return float(sum(map(nbytes, parts)))

    def _read(self, key: str) -> tuple[Any, float]:
        blob = self.ddict.get(key)
        if blob is None:
            raise KeyNotStagedError(key, backend="dragon")
        return deserialize(blob), float(len(blob))

    def _poll(self, key: str) -> bool:
        return self.ddict.has(key)

    def _clean(self, keys: Optional[list[str]]) -> int:
        if keys is None:
            return self.ddict.clear()
        return sum(int(self.ddict.delete(key)) for key in keys)

    def close(self) -> None:
        self.ddict.close()
