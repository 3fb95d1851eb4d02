"""Socket I/O shared by every wire protocol in this package.

RESP (mini-Redis, the sweep service), the dragon binary protocol and the
streaming transport all move a small header next to a payload that can
be tens of MiB. Both helpers keep the payload out of Python-level
copies: :func:`send_parts` hands the kernel views of the caller's own
buffers, :func:`recv_exact` lets the kernel fill the buffer that becomes
the result.
"""

from __future__ import annotations

import socket
import time
from typing import Sequence, Union

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
_JOIN_BELOW = 1 << 16


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
    """Receive exactly ``n`` bytes into one new buffer (the caller owns it).

    A peer that closes first raises ``ConnectionError`` — an ``OSError``,
    so callers treat it like any other dead socket.
    """
    buffer = bytearray(n)
    filled = sock.recv_into(buffer) if n else 0  # small frames arrive whole
    while filled < n:
        got = sock.recv_into(memoryview(buffer)[filled:])
        if not got:
            raise ConnectionError(f"connection closed mid-frame ({filled} of {n} bytes)")
        filled += got
    return buffer
