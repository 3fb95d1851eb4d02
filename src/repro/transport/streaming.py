"""Point-to-point streaming transport (the paper's ADIOS2-style extension).

The paper's future work names "support for point-to-point streaming, for
instance using ADIOS2". This module implements that transport for real,
with ADIOS2-SST-like semantics:

* a **writer** owns a stream and publishes a sequence of *steps*
  (``begin_step`` / ``put(name, array)`` / ``end_step``);
* **readers** connect and consume steps **in order**; a bounded in-flight
  queue applies back-pressure to the writer (SST's ``QueueLimit``);
* unlike the staging backends there are no keys, no polls, and no
  metadata service — the consumer blocks on "next step", which is exactly
  the latency profile streaming trades for staging's random access.

Wire protocol (little endian), writer = TCP server::

    reader->writer:  u8 op | u64 step_id          (op 1 = WAIT_STEP)
    writer->reader:  u8 status | u64 payload_len | payload
                     status 0 = step payload, 1 = end-of-stream, 2 = error

Step payloads are a name->array mapping serialized with
:mod:`repro.transport.serializer`. A step is bounded by
:data:`MAX_STEP_BYTES` on both ends: the writer refuses to publish a
larger one, and a reader drops the connection rather than allocate what
an oversized ``payload_len`` declares.
"""

from __future__ import annotations

import pickle
import socket
import struct
import threading
from typing import Any, Mapping, Optional

from repro.errors import CorruptPayloadError, ServerError, TransportError
from repro.transport.resp import MAX_BULK_BYTES as MAX_STEP_BYTES
from repro.transport.serializer import deserialize, serialize
from repro.transport.wire import Listener, connect, recv_exact, send_parts

OP_WAIT_STEP = 1
STATUS_STEP, STATUS_EOS, STATUS_ERROR = 0, 1, 2

_REQ = struct.Struct("<BQ")
_RESP = struct.Struct("<BQ")

def _encode_step(variables: Mapping[str, Any]) -> bytes:
    blobs = {name: serialize(value) for name, value in variables.items()}
    return pickle.dumps(blobs, protocol=pickle.HIGHEST_PROTOCOL)


def _decode_step(payload: bytes) -> dict[str, Any]:
    blobs = pickle.loads(payload)
    return {name: deserialize(blob) for name, blob in blobs.items()}


class StreamWriter:
    """The producing end of a stream; also the TCP server."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        queue_limit: int = 8,
        backpressure_timeout: Optional[float] = None,
    ) -> None:
        if queue_limit < 1:
            raise TransportError(f"queue_limit must be >= 1, got {queue_limit}")
        self.queue_limit = queue_limit
        self.backpressure_timeout = backpressure_timeout
        self._steps: dict[int, bytes] = {}
        self._next_step = 0
        self._min_retained = 0
        self._eos = False
        self._lock = threading.Condition()
        self._current: Optional[dict[str, Any]] = None
        self.steps_published = 0
        self.bytes_published = 0.0

        self._listener = Listener(host, port)
        self.host, self.port = self._listener.host, self._listener.port
        self._running = threading.Event()
        self._running.set()
        self._listener.start(self._serve_reader, "stream-writer")

    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    # -- writer API -----------------------------------------------------------
    def begin_step(self) -> None:
        if self._current is not None:
            raise TransportError("begin_step called inside an open step")
        if self._eos:
            raise TransportError("stream already closed")
        # Back-pressure: block while the in-flight window is full.
        deadline = self.backpressure_timeout
        with self._lock:
            while len(self._steps) >= self.queue_limit:
                self._lock.wait(timeout=0.05)
                if deadline is not None:
                    deadline -= 0.05
                    if deadline <= 0:
                        raise TransportError(
                            f"stream window full ({self.queue_limit} steps) and no "
                            f"reader drained it within {self.backpressure_timeout}s"
                        )
        self._current = {}

    def put(self, name: str, value: Any) -> None:
        if self._current is None:
            raise TransportError("put called outside begin_step/end_step")
        self._current[name] = value

    def end_step(self) -> float:
        """Publish the open step; returns serialized payload bytes."""
        if self._current is None:
            raise TransportError("end_step called without begin_step")
        payload = _encode_step(self._current)
        if len(payload) > MAX_STEP_BYTES:
            raise TransportError(
                f"step of {len(payload)} bytes exceeds the {MAX_STEP_BYTES}-byte step limit"
            )
        with self._lock:
            self._steps[self._next_step] = payload
            self._next_step += 1
            self.steps_published += 1
            self.bytes_published += len(payload)
            self._lock.notify_all()
        self._current = None
        return float(len(payload))

    def write_step(self, variables: Mapping[str, Any]) -> float:
        """Convenience: begin_step + puts + end_step."""
        self.begin_step()
        for name, value in variables.items():
            self.put(name, value)
        return self.end_step()

    def finish(self) -> None:
        """Mark end-of-stream but keep serving.

        Readers (including ones connecting later) drain the remaining
        steps and then receive EOS; call :meth:`close` to shut the server
        down once consumers are done.
        """
        with self._lock:
            self._eos = True
            self._lock.notify_all()

    def close(self) -> None:
        """Mark end-of-stream and shut the server down."""
        self.finish()
        self._running.clear()
        self._listener.close()

    def __enter__(self) -> "StreamWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- serving ------------------------------------------------------------------
    def _serve_reader(self, conn: socket.socket) -> None:
        try:
            while True:
                op, step_id = _REQ.unpack(recv_exact(conn, _REQ.size))
                if op != OP_WAIT_STEP:
                    conn.sendall(_RESP.pack(STATUS_ERROR, 0))
                    continue
                payload = self._wait_for_step(step_id)
                if payload is None:
                    conn.sendall(_RESP.pack(STATUS_EOS, 0))
                else:
                    send_parts(conn, (_RESP.pack(STATUS_STEP, len(payload)), payload))
                    self._maybe_release(step_id)
        except OSError:
            pass  # the reader went away

    def _wait_for_step(self, step_id: int) -> Optional[bytes]:
        with self._lock:
            while True:
                if step_id in self._steps:
                    return self._steps[step_id]
                if self._eos and step_id >= self._next_step:
                    return None
                if step_id < self._min_retained:
                    # Step already released: in-order consumption violated.
                    return None
                if not self._lock.wait(timeout=0.1) and not self._running.is_set():
                    return None

    def _maybe_release(self, step_id: int) -> None:
        """Drop delivered steps from the window (single-reader semantics:
        a step is released once any reader consumed it)."""
        with self._lock:
            if step_id in self._steps:
                del self._steps[step_id]
                self._min_retained = max(self._min_retained, step_id + 1)
                self._lock.notify_all()


class StreamReader:
    """The consuming end: connects to a writer and pulls steps in order."""

    def __init__(self, address: str, timeout: float = 30.0) -> None:
        host, port_text = address.rsplit(":", 1)
        try:
            self._sock = connect(host, int(port_text), timeout)
        except OSError as exc:
            raise ServerError(f"cannot connect to stream {address}: {exc}") from exc
        self._next_step = 0
        self._current: Optional[dict[str, Any]] = None
        self.steps_consumed = 0
        self.bytes_consumed = 0.0

    def begin_step(self) -> bool:
        """Block for the next step; False at end-of-stream."""
        if self._current is not None:
            raise TransportError("begin_step called inside an open step")
        try:
            self._sock.sendall(_REQ.pack(OP_WAIT_STEP, self._next_step))
            status, payload_len = _RESP.unpack(recv_exact(self._sock, _RESP.size))
            if payload_len > MAX_STEP_BYTES:
                # Nothing sane follows a header like that; the stream
                # cannot be resynchronised.
                self._sock.close()
                raise CorruptPayloadError(
                    f"stream reply declares {payload_len} bytes, over the "
                    f"{MAX_STEP_BYTES}-byte step limit"
                )
            payload = recv_exact(self._sock, payload_len)
        except ConnectionError as exc:
            raise ServerError(f"stream {exc}") from exc
        if status == STATUS_EOS:
            return False
        if status == STATUS_ERROR:
            raise TransportError("stream writer reported an error")
        self._current = _decode_step(payload)
        self.bytes_consumed += payload_len
        return True

    def get(self, name: str) -> Any:
        if self._current is None:
            raise TransportError("get called outside begin_step/end_step")
        try:
            return self._current[name]
        except KeyError:
            raise TransportError(
                f"variable {name!r} not in step {self._next_step} "
                f"(has {sorted(self._current)})"
            ) from None

    def variables(self) -> list[str]:
        if self._current is None:
            raise TransportError("variables() called outside an open step")
        return sorted(self._current)

    def end_step(self) -> None:
        if self._current is None:
            raise TransportError("end_step called without begin_step")
        self._current = None
        self._next_step += 1
        self.steps_consumed += 1

    def read_step(self) -> Optional[dict[str, Any]]:
        """Convenience: next full step as a dict, or None at EOS."""
        if not self.begin_step():
            return None
        step = dict(self._current)  # type: ignore[arg-type]
        self.end_step()
        return step

    def close(self) -> None:
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "StreamReader":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
