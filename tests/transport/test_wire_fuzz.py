"""Replay the committed wire fuzz corpus (``fuzz_corpus.json``).

Every entry is a hostile or broken input: truncated frames, oversized
declared lengths, bad type bytes. RESP entries are replayed through the
parser under several chunkings (interleaved partial reads must not change
the outcome) and against a live mini-Redis server; blob entries go through
``deserialize``. The contract is the same everywhere: a typed
``TransportError`` (``RespError`` / ``CorruptPayloadError``) or a clean
close — never a bare ``ValueError``, a hang, or memory anywhere near what
the input *declares*.
"""

from __future__ import annotations

import json
import pathlib
import socket
import tracemalloc

import pytest

from repro.errors import CorruptPayloadError
from repro.transport.redis_backend import MiniRedisConnection, MiniRedisServer
from repro.transport.resp import MAX_BULK_BYTES, RespError, RespParser, ServerReplyError
from repro.transport.serializer import deserialize

CORPUS = json.loads((pathlib.Path(__file__).parent / "fuzz_corpus.json").read_text())["entries"]
#: No corpus entry needs more than its own bytes (≤ 200 kB) plus one
#: 70 kB landing buffer; the largest *declared* size is 2**63.
MEMORY_BOUND = MAX_BULK_BYTES // 16
CHUNKINGS = (None, 1, 2, 3, 7, 4096)


def wire_bytes(entry: dict) -> bytes:
    return b"".join(
        (seg if isinstance(seg, str) else seg[0] * seg[1]).encode("latin-1")
        for seg in entry["data"]
    )


def entries(wire: str):
    return [pytest.param(e, id=e["name"]) for e in CORPUS if e["wire"] == wire]


def split(data: bytes, chunk) -> list[bytes]:
    return [data] if chunk is None else [data[i : i + chunk] for i in range(0, len(data), chunk)]


def parse(pieces: list[bytes]) -> tuple[int, str]:
    """(well-formed frames popped, how the stream ended) for one chunking."""
    parser = RespParser()
    frames = 0
    try:
        for piece in pieces:
            parser.feed(piece)
            while parser.pop_frame()[0]:
                frames += 1
    except (RespError, ServerReplyError):
        return frames, "error"
    return frames, "incomplete"


def test_corpus_is_present_and_names_are_unique():
    names = [e["name"] for e in CORPUS]
    assert len(names) == len(set(names)) >= 50
    assert {e["wire"] for e in CORPUS} == {"resp", "blob"}


@pytest.mark.parametrize("entry", entries("resp"))
def test_resp_parser_rejects_or_waits_under_every_chunking(entry):
    data = wire_bytes(entry)
    expected = (entry.get("frames", 0), entry["then"])
    chunked = {chunk: split(data, chunk) for chunk in CHUNKINGS}
    tracemalloc.start()  # what the parser holds, not what the test feeds it
    try:
        outcomes = {chunk: parse(pieces) for chunk, pieces in chunked.items()}
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcomes == dict.fromkeys(CHUNKINGS, expected)
    assert peak < MEMORY_BOUND


@pytest.fixture(scope="module")
def server():
    with MiniRedisServer() as running:
        yield running


@pytest.mark.parametrize("entry", entries("resp"))
def test_live_server_answers_and_closes_cleanly(server, entry):
    with socket.create_connection((server.host, server.port), timeout=10.0) as sock:
        sock.sendall(wire_bytes(entry))
        sock.shutdown(socket.SHUT_WR)
        received = b""
        while True:
            chunk = sock.recv(65536)  # socket.timeout here = the server hung
            if not chunk:
                break
            received += chunk
    replies = [line for line in received.split(b"\r\n") if line]
    # One reply per well-formed frame, then -ERR for a malformed one and
    # nothing at all for a truncated one; either way the server hung up.
    assert len(replies) == entry.get("frames", 0) + (entry["then"] == "error")
    if entry["then"] == "error":
        assert replies[-1].startswith(b"-ERR ")
    # ... and is still serving everyone else.
    probe = MiniRedisConnection(server.host, server.port, timeout=10.0)
    try:
        assert probe.command("PING") == "PONG"
    finally:
        probe.close()


@pytest.mark.parametrize("adopt", [False, True], ids=["bytes", "bytearray"])
@pytest.mark.parametrize("entry", entries("blob"))
def test_blob_decoder_raises_corrupt_payload(entry, adopt):
    blob = wire_bytes(entry)
    tracemalloc.start()
    try:
        with pytest.raises(CorruptPayloadError):
            deserialize(bytearray(blob) if adopt else blob)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < MEMORY_BOUND
