"""RESP (REdis Serialization Protocol) encoding and incremental parsing.

The wire format our mini-Redis speaks is the real RESP2 subset that the
commands we implement need:

* requests: arrays of bulk strings (``*N\\r\\n$len\\r\\n<bytes>\\r\\n``...);
* replies: simple strings (``+OK``), errors (``-ERR ...``), integers
  (``:N``), bulk strings (``$len`` / null ``$-1``), arrays (``*N``).

The parser is incremental: feed it raw socket bytes (``feed``) or let it
read the socket itself (``recv_from``), pop complete messages as they
become available.

Small frames — the whole control plane — are parsed inside the receive
buffer. A bulk string whose *declared* length is at least
:data:`DIRECT_BULK_BYTES` is instead received straight into a buffer of
exactly that size, which then *is* the parsed value (a ``bytearray``
from :func:`~repro.transport.wire.landing`, not zero-filled first): a
staged array crosses the parser without being copied. The encoders
mirror this: values that large are passed through as separate buffers
for :func:`~repro.transport.wire.send_parts` instead of being joined
into the frame.

The parser also enforces frame limits so a malformed (or hostile) peer
can never drive unbounded buffer growth: a declared bulk length above
``max_bulk_bytes`` is rejected the moment its header line parses —
*before* any payload arrives — and arrays are bounded in element count
and nesting depth. Violations raise :class:`RespError`, which the server
loop answers with ``-ERR`` and a clean disconnect.
"""

from __future__ import annotations

import socket
from typing import Any, Iterable, Optional, Union

from repro.errors import TransportError
from repro.transport.wire import Blob, Buffer, as_parts, landing, nbytes

CRLF = b"\r\n"

#: Bulk strings declared at least this long bypass the parse buffer on
#: the way in and the frame join on the way out. A constant, and applied
#: to the length the frame itself declares, so the two paths cannot be
#: mixed up by how the bytes happen to arrive: control-plane frames
#: (hundreds of bytes) always take the in-buffer parse, staged arrays
#: (MiB) always land in place.
DIRECT_BULK_BYTES = 64 * 1024

_RECV_CHUNK = 1 << 16

#: Largest bulk string a parser accepts by default. Generous because
#: legitimate DONE payloads (pickled values + telemetry snapshots) can
#: reach megabytes; an attacker-sized "$99999999999" is still rejected
#: without buffering a byte of it.
MAX_BULK_BYTES = 64 * 1024 * 1024

#: Largest array element count a parser accepts by default.
MAX_ARRAY_ITEMS = 1 << 16

#: Deepest array nesting a parser accepts by default (commands are flat;
#: depth beyond a handful means a confused or malicious peer).
MAX_ARRAY_DEPTH = 8


class RespError(TransportError):
    """Protocol-level failure (malformed frame)."""


class ServerReplyError(TransportError):
    """The server answered with an error reply (``-ERR ...``)."""


#: One command argument: text, an integer, or a blob (possibly in pieces,
#: which are sent as one bulk string).
Part = Union[str, int, Blob]


def encode_command_parts(*parts: Part) -> list[Buffer]:
    """Encode a command as buffers for :func:`~repro.transport.wire.send_parts`.

    Framing and small arguments are joined into as few ``bytes`` as
    possible; a buffer of :data:`DIRECT_BULK_BYTES` or more is passed
    through as it is, uncopied.
    """
    if not parts:
        raise RespError("cannot encode an empty command")
    out: list[Buffer] = []
    small = [b"*%d\r\n" % len(parts)]
    for part in parts:
        if isinstance(part, str):
            part = part.encode("utf-8")
        elif isinstance(part, int):
            part = str(part).encode("ascii")
        elif not isinstance(part, (bytes, bytearray, memoryview, tuple, list)):
            raise RespError(f"cannot encode command part of type {type(part).__name__}")
        if type(part) is bytes and len(part) < DIRECT_BULK_BYTES:
            # What nearly every argument is; the general case below
            # would produce the same bytes.
            small.append(b"$%d\r\n%b\r\n" % (len(part), part))
            continue
        pieces = as_parts(part)
        small.append(b"$%d\r\n" % sum(map(nbytes, pieces)))
        for piece in pieces:
            if nbytes(piece) >= DIRECT_BULK_BYTES:
                out += [b"".join(small), piece]
                small = []
            else:
                small.append(piece)
        small.append(CRLF)
    out.append(b"".join(small))
    return out


def encode_command(*parts: Part) -> bytes:
    """Encode a command as an array of bulk strings."""
    return b"".join(encode_command_parts(*parts))


def encode_simple(text: str) -> bytes:
    return b"+" + text.encode("utf-8") + CRLF


def encode_error(text: str) -> bytes:
    return b"-ERR " + text.encode("utf-8") + CRLF


def encode_busy(text: str) -> bytes:
    """Typed overload refusal: ``-BUSY <text>``.

    Distinct from :func:`encode_error` so clients can tell "the server is
    shedding load, retry later" (honor the hint, keep the budget) from
    "the request itself is wrong" (fail fast). Parsers surface it as a
    :class:`ServerReplyError` whose message starts with ``BUSY`` — only
    the ``ERR`` marker is stripped client-side.
    """
    return b"-BUSY " + text.encode("utf-8") + CRLF


def encode_integer(value: int) -> bytes:
    return b":%d" % value + CRLF


def encode_bulk(data: Optional[Buffer]) -> Union[bytes, list[Buffer]]:
    """Encode one bulk-string reply.

    A value of :data:`DIRECT_BULK_BYTES` or more comes back as
    ``[header, value, CRLF]`` for
    :func:`~repro.transport.wire.send_parts` — the value itself is not
    copied into the frame.
    """
    if data is None:
        return b"$-1" + CRLF
    header = b"$%d" % len(data) + CRLF
    if len(data) >= DIRECT_BULK_BYTES:
        return [header, data, CRLF]
    return header + data + CRLF


def encode_array(items: Iterable[bytes]) -> bytes:
    items = list(items)
    return b"*%d" % len(items) + CRLF + b"".join(
        b"$%d\r\n%b\r\n" % (len(item), item) for item in items
    )


class RespParser:
    """Incremental RESP parser over a growing byte buffer.

    ``max_bulk_bytes`` / ``max_array_items`` / ``max_array_depth`` bound
    what one frame may declare (see module docstring); ``None`` keeps
    the module defaults. Limits are checked against the *declared*
    header values, so an oversized frame is rejected before its payload
    is buffered — or, for a large bulk, before its buffer is allocated.

    ``feed(bytes)`` and ``recv_from(sock)`` are interchangeable ways in
    and may be mixed; both yield the same values for the same stream.
    Bulk strings of :data:`DIRECT_BULK_BYTES` or more come out as a
    ``bytearray`` that nothing else refers to.
    """

    def __init__(
        self,
        max_bulk_bytes: Optional[int] = None,
        max_array_items: Optional[int] = None,
        max_array_depth: Optional[int] = None,
    ) -> None:
        self._buffer = bytearray()
        # Large bulks of the frame at the front of the buffer. Their
        # payload is cut out of the stream: _landed maps the buffer
        # offset it was cut at (the end of its header line; the CRLF
        # that follows it stays in the buffer) to the bytearray that
        # holds it, and _filling is the unfilled tail of the newest one.
        # Frames are parsed in order, so at most one is ever filling.
        self._landed: dict[int, bytearray] = {}
        self._landed_bytes = 0
        self._filling: Optional[memoryview] = None
        self.max_bulk_bytes = (
            MAX_BULK_BYTES if max_bulk_bytes is None else int(max_bulk_bytes)
        )
        self.max_array_items = (
            MAX_ARRAY_ITEMS if max_array_items is None else int(max_array_items)
        )
        self.max_array_depth = (
            MAX_ARRAY_DEPTH if max_array_depth is None else int(max_array_depth)
        )

    def feed(self, data: Buffer) -> None:
        if self._filling is not None:
            data = self._fill(memoryview(data))
        self._buffer.extend(data)

    def recv_from(self, sock: socket.socket) -> int:
        """Receive once from ``sock``; returns the byte count (0 = closed).

        While a large bulk is landing the kernel writes into its buffer
        directly, and never past its end: what follows it on the stream
        is left for the next call.
        """
        if self._filling is not None:
            got = sock.recv_into(self._filling)
            self._filling = self._filling[got:] if got < self._filling.nbytes else None
            return got
        data = sock.recv(_RECV_CHUNK)
        self._buffer.extend(data)
        return len(data)

    def _fill(self, data: memoryview) -> memoryview:
        """Copy into the landing bulk; returns what is left of ``data``."""
        room = self._filling
        n = min(room.nbytes, data.nbytes)
        room[:n] = data[:n]
        self._filling = room[n:] if n < room.nbytes else None
        return data[n:]

    def _land(self, at: int, length: int) -> bytearray:
        """Start a large bulk whose header line ends at buffer offset ``at``."""
        self._check_held(at + length)
        value = self._landed[at] = landing(length)
        self._landed_bytes += length
        self._filling = memoryview(value)
        # Whatever part of the payload was buffered before its header
        # parsed (at most one receive) moves over; the rest arrives in place.
        arrived = min(len(self._buffer) - at, length)
        with memoryview(self._buffer) as buffered:
            self._fill(buffered[at : at + arrived])
        del self._buffer[at : at + arrived]
        return value

    def _check_held(self, buffered: int) -> None:
        # Every legal incomplete frame fits in max_bulk_bytes plus header
        # slack; beyond that a peer is streaming garbage with no CRLF in
        # sight (or stacking large bulks in one array) — stop holding it.
        if buffered + self._landed_bytes > self.max_bulk_bytes + 65536:
            raise RespError(f"unterminated frame exceeds {self.max_bulk_bytes} bytes")

    def pop_frame(self) -> tuple[bool, Optional[Any]]:
        """Pop one complete message.

        Returns ``(True, value)`` when a full frame was consumed and
        ``(False, None)`` when more bytes are needed. Values: str for
        simple strings, bytes for bulk strings (bytearray for large
        ones, see :data:`DIRECT_BULK_BYTES`; None for null bulk), int
        for integers, list for arrays. Error replies raise
        :class:`ServerReplyError`.
        """
        result, consumed = self._parse(0)
        if result is _INCOMPLETE:
            self._check_held(len(self._buffer))
            return False, None
        del self._buffer[:consumed]
        if self._landed:
            self._landed = {}
            self._landed_bytes = 0
        if isinstance(result, _ErrorReply):
            raise ServerReplyError(result.message)
        return True, result

    def pop(self) -> Optional[Any]:
        """Like :meth:`pop_frame` but collapses "incomplete" to None.

        Only safe for streams that never carry null bulk replies (e.g.
        request streams of command arrays).
        """
        found, value = self.pop_frame()
        return value if found else None

    # -- internals ---------------------------------------------------------
    def _parse(self, pos: int, depth: int = 0):
        if pos >= len(self._buffer):
            return _INCOMPLETE, 0
        marker = self._buffer[pos : pos + 1]
        line_end = self._buffer.find(CRLF, pos)
        if line_end < 0:
            return _INCOMPLETE, 0
        line = bytes(self._buffer[pos + 1 : line_end])
        after_line = line_end + 2

        if marker == b"+" or marker == b"-":
            try:
                text = line.decode("utf-8")
            except UnicodeDecodeError:
                raise RespError(f"status line is not UTF-8: {line!r}") from None
            return (text if marker == b"+" else _ErrorReply(text)), after_line
        if marker == b":":
            try:
                return int(line), after_line
            except ValueError:
                raise RespError(f"bad integer line {line!r}") from None
        if marker == b"$":
            try:
                length = int(line)
            except ValueError:
                raise RespError(f"bad bulk length {line!r}") from None
            if length == -1:
                return None, after_line
            if length < 0:
                raise RespError(f"negative bulk length {length}")
            if length > self.max_bulk_bytes:
                raise RespError(
                    f"bulk string of {length} bytes exceeds the "
                    f"{self.max_bulk_bytes}-byte frame limit"
                )
            if length >= DIRECT_BULK_BYTES:
                value = self._landed.get(after_line)
                if value is None:
                    value = self._land(after_line, length)
                if self._filling is not None:
                    return _INCOMPLETE, 0
                end = after_line + 2  # the payload is not in the buffer
                if len(self._buffer) < end:
                    return _INCOMPLETE, 0
                if self._buffer[after_line:end] != CRLF:
                    raise RespError("bulk string missing CRLF terminator")
                return value, end
            end = after_line + length + 2
            if len(self._buffer) < end:
                return _INCOMPLETE, 0
            if bytes(self._buffer[after_line + length : end]) != CRLF:
                raise RespError("bulk string missing CRLF terminator")
            return bytes(self._buffer[after_line : after_line + length]), end
        if marker == b"*":
            try:
                count = int(line)
            except ValueError:
                raise RespError(f"bad array length {line!r}") from None
            if count < 0:
                raise RespError(f"negative array length {count}")
            if count > self.max_array_items:
                raise RespError(
                    f"array of {count} items exceeds the "
                    f"{self.max_array_items}-item frame limit"
                )
            if depth + 1 > self.max_array_depth:
                raise RespError(
                    f"array nesting exceeds depth {self.max_array_depth}"
                )
            items = []
            cursor = after_line
            for _ in range(count):
                item, consumed = self._parse(cursor, depth + 1)
                if item is _INCOMPLETE:
                    return _INCOMPLETE, 0
                if isinstance(item, _ErrorReply):
                    raise RespError("nested error reply in array")
                items.append(item)
                cursor = consumed
            return items, cursor
        raise RespError(f"unknown RESP marker {marker!r}")


class _ErrorReply:
    def __init__(self, message: str) -> None:
        # Strip the conventional "ERR " prefix for cleaner exceptions.
        self.message = message[4:] if message.startswith("ERR ") else message


_INCOMPLETE = object()
