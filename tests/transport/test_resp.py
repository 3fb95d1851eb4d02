"""Tests for RESP encoding and incremental parsing."""

import socket

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.resp import (
    DIRECT_BULK_BYTES,
    MAX_ARRAY_DEPTH,
    MAX_ARRAY_ITEMS,
    MAX_BULK_BYTES,
    RespError,
    RespParser,
    ServerReplyError,
    encode_array,
    encode_bulk,
    encode_command,
    encode_command_parts,
    encode_error,
    encode_integer,
    encode_simple,
)
from tests.transport.memory import peak_bytes


def parse_one(blob):
    p = RespParser()
    p.feed(blob)
    found, value = p.pop_frame()
    assert found
    return value


def test_encode_command_wire_format():
    assert encode_command("SET", "k", b"v") == b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n"


def test_encode_command_int_args():
    assert b"$2\r\n42\r\n" in encode_command("EXPIRE", "k", 42)


def test_encode_command_empty_rejected():
    with pytest.raises(RespError):
        encode_command()


def test_encode_command_bad_type():
    with pytest.raises(RespError):
        encode_command("SET", 1.5)


def test_parse_simple_string():
    assert parse_one(encode_simple("OK")) == "OK"


def test_parse_integer():
    assert parse_one(encode_integer(-7)) == -7


def test_parse_bulk():
    assert parse_one(encode_bulk(b"hello\r\nworld")) == b"hello\r\nworld"


def test_parse_null_bulk():
    assert parse_one(encode_bulk(None)) is None


def test_parse_empty_bulk():
    assert parse_one(encode_bulk(b"")) == b""


def test_parse_array():
    assert parse_one(encode_array([b"a", b"bb"])) == [b"a", b"bb"]


def test_parse_command_array():
    assert parse_one(encode_command("GET", "key")) == [b"GET", b"key"]


def test_parse_error_reply_raises():
    p = RespParser()
    p.feed(encode_error("something bad"))
    with pytest.raises(ServerReplyError, match="something bad"):
        p.pop_frame()


def test_incremental_feeding_byte_by_byte():
    blob = encode_command("SET", "key", b"value-bytes")
    p = RespParser()
    results = []
    for i, byte in enumerate(blob):
        p.feed(bytes([byte]))
        found, value = p.pop_frame()
        if found:
            results.append((i, value))
    assert len(results) == 1
    assert results[0][0] == len(blob) - 1
    assert results[0][1] == [b"SET", b"key", b"value-bytes"]


def test_multiple_messages_in_one_feed():
    p = RespParser()
    p.feed(encode_simple("A") + encode_integer(1) + encode_bulk(b"z"))
    assert p.pop_frame() == (True, "A")
    assert p.pop_frame() == (True, 1)
    assert p.pop_frame() == (True, b"z")
    assert p.pop_frame() == (False, None)


def test_pop_convenience():
    p = RespParser()
    assert p.pop() is None
    p.feed(encode_simple("X"))
    assert p.pop() == "X"


def test_malformed_integer():
    p = RespParser()
    p.feed(b":abc\r\n")
    with pytest.raises(RespError):
        p.pop_frame()


def test_malformed_bulk_length():
    p = RespParser()
    p.feed(b"$xyz\r\n")
    with pytest.raises(RespError):
        p.pop_frame()


def test_negative_bulk_length_other_than_null():
    p = RespParser()
    p.feed(b"$-2\r\n")
    with pytest.raises(RespError):
        p.pop_frame()


def test_bulk_missing_terminator():
    p = RespParser()
    p.feed(b"$3\r\nabcXX")
    with pytest.raises(RespError):
        p.pop_frame()


def test_unknown_marker():
    p = RespParser()
    p.feed(b"?what\r\n")
    with pytest.raises(RespError):
        p.pop_frame()


def test_binary_safe_payload():
    payload = bytes(range(256)) * 4
    assert parse_one(encode_bulk(payload)) == payload


class TestFrameLimits:
    """A hostile header must be rejected before its payload buffers."""

    def test_defaults_are_sane(self):
        assert MAX_BULK_BYTES == 64 * 1024 * 1024
        assert MAX_ARRAY_ITEMS == 1 << 16
        assert MAX_ARRAY_DEPTH == 8

    def test_oversized_bulk_rejected_from_header_alone(self):
        p = RespParser(max_bulk_bytes=16)
        p.feed(b"$99999999999\r\n")  # no payload bytes ever sent
        with pytest.raises(RespError, match="frame limit"):
            p.pop_frame()

    def test_bulk_at_limit_is_accepted(self):
        p = RespParser(max_bulk_bytes=4)
        p.feed(encode_bulk(b"abcd"))
        assert p.pop_frame() == (True, b"abcd")

    def test_oversized_array_count_rejected(self):
        p = RespParser(max_array_items=4)
        p.feed(b"*5\r\n")
        with pytest.raises(RespError, match="item frame limit"):
            p.pop_frame()

    def test_nesting_depth_bounded(self):
        depth = 5
        p = RespParser(max_array_depth=4)
        p.feed(b"*1\r\n" * depth + b":1\r\n")
        with pytest.raises(RespError, match="nesting exceeds depth"):
            p.pop_frame()

    def test_nesting_at_limit_parses(self):
        p = RespParser(max_array_depth=4)
        p.feed(b"*1\r\n" * 4 + b":1\r\n")
        assert p.pop_frame() == (True, [[[[1]]]])

    def test_unterminated_garbage_stops_accumulating(self):
        p = RespParser(max_bulk_bytes=1024)
        # A peer streaming bytes with no CRLF in sight: the buffer may
        # not grow unboundedly waiting for a terminator.
        with pytest.raises(RespError, match="unterminated frame"):
            for _ in range(80):
                p.feed(b"x" * 1024)
                p.pop_frame()

    def test_limits_do_not_leak_across_frames(self):
        p = RespParser(max_bulk_bytes=8)
        p.feed(encode_bulk(b"ok"))
        assert p.pop() == b"ok"
        p.feed(b"$9\r\n")
        with pytest.raises(RespError):
            p.pop_frame()


# -- large values: passed through on the way out, landed in place on the way in --


def test_large_command_part_is_passed_through_uncopied():
    blob = bytearray(b"\r\n" * (DIRECT_BULK_BYTES // 2))
    parts = encode_command_parts("SET", "k", blob, 7)
    assert any(part is blob for part in parts)
    assert len(parts) == 3  # framing before, the blob, framing after
    assert b"".join(parts) == encode_command("SET", "k", blob, 7)
    assert parse_one(b"".join(parts)) == [b"SET", b"k", blob, b"7"]


def test_pieces_form_one_bulk_string():
    head, body = b"RNP1....", memoryview(b"x" * DIRECT_BULK_BYTES)
    parts = encode_command_parts("SET", "k", (head, body))
    assert any(part is body for part in parts)
    assert parse_one(b"".join(parts)) == [b"SET", b"k", head + bytes(body)]
    assert encode_command("SET", "k", (b"ab", b"cd")) == encode_command("SET", "k", b"abcd")


def test_small_command_stays_one_buffer():
    assert encode_command_parts("GET", "k") == [encode_command("GET", "k")]


def test_encode_bulk_hands_a_large_value_through():
    value = bytearray(b"v" * DIRECT_BULK_BYTES)
    reply = encode_bulk(value)
    assert isinstance(reply, list) and reply[1] is value
    assert parse_one(b"".join(reply)) == value
    assert isinstance(encode_bulk(value[:-1]), bytes)


def test_large_bulk_is_its_own_bytearray():
    payload = bytes(range(256)) * (DIRECT_BULK_BYTES // 256)
    value = parse_one(b"".join(encode_bulk(payload)))
    assert isinstance(value, bytearray) and value == payload
    value[0] = 255  # nothing else holds it: resizable, writable
    value.append(0)


def _wire(value) -> bytes:
    if value is None:
        return b"$-1\r\n"
    if isinstance(value, int):
        return encode_integer(value)
    if isinstance(value, str):
        return encode_simple(value)
    if isinstance(value, bytes):
        return b"$%d\r\n%b\r\n" % (len(value), value)
    return b"*%d\r\n" % len(value) + b"".join(_wire(item) for item in value)


_LARGE_SIZES = (DIRECT_BULK_BYTES, DIRECT_BULK_BYTES + 1, 2 * DIRECT_BULK_BYTES + 17)
_large_bulks = st.builds(
    lambda seed, size: (seed * (size // len(seed) + 1))[:size],
    st.binary(min_size=1, max_size=6) | st.just(b"\r\n"),
    st.sampled_from(_LARGE_SIZES),
)
_small = (
    st.none()
    | st.integers(-(2**40), 2**40)
    | st.text("abcXYZ -_:", max_size=12)
    | st.binary(max_size=40)
)
_commands = st.lists(st.binary(min_size=1, max_size=24), min_size=1, max_size=5)
_frames = st.one_of(
    _small,
    _commands,
    _large_bulks,
    # one or two large bulks inside one array, small items around them
    st.tuples(_commands, _large_bulks, _commands).map(lambda t: t[0] + [t[1]] + t[2]),
    st.tuples(_large_bulks, _commands, _large_bulks).map(lambda t: [t[0]] + t[1] + [t[2]]),
    st.recursive(_small, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
)


def _pop_all(parser):
    values = []
    while True:
        found, value = parser.pop_frame()
        if not found:
            return values
        values.append(value)


def _through_feed(chunks):
    parser, values = RespParser(), []
    for chunk in chunks:
        parser.feed(chunk)
        values += _pop_all(parser)
    return values


def _through_socket(chunks, also_feed=False):
    """Every chunk crosses a socketpair and is drained by ``recv_from``
    before the next is sent (with ``also_feed``, every other chunk is
    fed instead: the two ways in may be mixed)."""
    parser, values = RespParser(), []
    ours, theirs = socket.socketpair()
    try:
        ours.setblocking(False)
        for i, chunk in enumerate(chunks):
            if also_feed and i % 2:
                parser.feed(chunk)
                values += _pop_all(parser)
                continue
            for at in range(0, len(chunk), 16384):
                theirs.sendall(chunk[at : at + 16384])
                while True:
                    try:
                        assert parser.recv_from(ours) > 0
                    except BlockingIOError:
                        break
                    values += _pop_all(parser)
    finally:
        ours.close()
        theirs.close()
    return values


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_any_chunking_parses_like_one_shot(data):
    frames = data.draw(st.lists(_frames, min_size=1, max_size=5))
    stream = b"".join(_wire(frame) for frame in frames)
    one_shot = _through_feed([stream])
    assert one_shot == frames
    # Cuts anywhere, and preferably on or next to a CRLF: header ends,
    # payload ends and frame ends are where the parser changes state.
    near_crlf = [
        at + d
        for at in range(len(stream) - 1)
        if stream[at : at + 2] == b"\r\n"
        for d in (0, 1, 2)
    ][:3000]
    cuts = sorted(
        data.draw(
            st.lists(
                st.integers(0, len(stream)) | st.sampled_from(near_crlf), max_size=24
            )
        )
    )
    chunks = [stream[a:b] for a, b in zip([0] + cuts, cuts + [len(stream)]) if a < b]
    assert _through_feed(chunks) == one_shot
    assert _through_socket(chunks) == one_shot
    assert _through_socket(chunks, also_feed=True) == one_shot


def test_pipelined_frame_right_after_a_large_bulk():
    big = b"q" * (DIRECT_BULK_BYTES + 5)
    stream = encode_command("SET", "k", big) + encode_command("PING") + _wire(None)
    for cut in (len(stream) - 30, len(stream) - 31, 40, DIRECT_BULK_BYTES):
        assert _through_socket([stream[:cut], stream[cut:]]) == [
            [b"SET", b"k", big], [b"PING"], None
        ]


class TestDirectReceiveLimits:
    def test_oversized_declared_bulk_allocates_nothing(self):
        def refuse():
            p = RespParser()
            p.feed(b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$%d\r\n" % (MAX_BULK_BYTES + 1))
            with pytest.raises(RespError, match="frame limit"):
                p.pop_frame()

        assert peak_bytes(refuse)[0] < 64 * 1024

    def test_oversized_declared_bulk_over_a_socket_allocates_nothing(self):
        ours, theirs = socket.socketpair()

        def refuse():
            p = RespParser(max_bulk_bytes=DIRECT_BULK_BYTES)
            theirs.sendall(b"$%d\r\n" % (8 * DIRECT_BULK_BYTES))
            assert p.recv_from(ours) > 0
            with pytest.raises(RespError, match="frame limit"):
                p.pop_frame()

        try:
            # (one receive chunk of that size is the parser's own scratch)
            assert peak_bytes(refuse)[0] < 2 * DIRECT_BULK_BYTES
        finally:
            ours.close()
            theirs.close()

    def test_large_bulks_stacked_in_one_array_hit_the_frame_cap(self):
        # Each bulk is legal; together they pass what one frame may hold,
        # and the second buffer is refused before it is allocated.
        size = 4 * DIRECT_BULK_BYTES
        stream = b"*2\r\n" + _wire(b"a" * size) + b"$%d\r\n" % size

        def refuse():
            p = RespParser(max_bulk_bytes=size)
            p.feed(stream)
            with pytest.raises(RespError, match="unterminated frame"):
                p.pop_frame()

        # The parser's copy of the stream and one landed bulk; never a second.
        assert peak_bytes(refuse)[0] < 2.5 * size

    @pytest.mark.parametrize("through", [_through_feed, _through_socket])
    def test_large_bulk_with_wrong_terminator(self, through):
        stream = b"$%d\r\n" % DIRECT_BULK_BYTES + b"p" * DIRECT_BULK_BYTES + b"XX"
        with pytest.raises(RespError, match="CRLF terminator"):
            through([stream[:100], stream[100:]])

    def test_large_bulk_at_the_limit_is_accepted(self):
        p = RespParser(max_bulk_bytes=DIRECT_BULK_BYTES)
        p.feed(_wire(b"z" * DIRECT_BULK_BYTES))
        assert p.pop_frame() == (True, b"z" * DIRECT_BULK_BYTES)
