"""Tests for the ADIOS2-style point-to-point streaming transport."""

import socket
import struct
import threading

import numpy as np
import pytest

from repro.errors import CorruptPayloadError, ServerError, TransportError
from repro.transport import StreamReader, StreamWriter
from repro.transport import streaming
from repro.transport.models import (
    StreamingBackendModel,
    TransportOpContext,
)


@pytest.fixture
def writer():
    # A generous window plus a back-pressure timeout so a misbehaving test
    # fails loudly instead of deadlocking the suite.
    w = StreamWriter(queue_limit=32, backpressure_timeout=20.0)
    yield w
    w.close()


def test_writer_binds_ephemeral_port(writer):
    assert writer.port > 0


def test_single_step_roundtrip(writer):
    arr = np.arange(100.0)
    writer.write_step({"u": arr, "meta": {"step": 0}})
    with StreamReader(writer.address) as reader:
        assert reader.begin_step()
        assert reader.variables() == ["meta", "u"]
        np.testing.assert_array_equal(reader.get("u"), arr)
        assert reader.get("meta") == {"step": 0}
        reader.end_step()


def test_steps_arrive_in_order(writer):
    for i in range(5):
        writer.write_step({"i": np.array([float(i)])})
    writer.finish()  # EOS marked, server still answering
    with StreamReader(writer.address) as reader:
        seen = []
        while True:
            step = reader.read_step()
            if step is None:
                break
            seen.append(float(step["i"][0]))
    assert seen == [0.0, 1.0, 2.0, 3.0, 4.0]


def test_eos_after_finish(writer):
    writer.write_step({"x": 1})
    writer.finish()
    with StreamReader(writer.address) as reader:
        assert reader.read_step() == {"x": 1}
        assert reader.read_step() is None


def test_reader_blocks_until_step_published(writer):
    got = []

    def consume():
        with StreamReader(writer.address) as reader:
            got.append(reader.read_step())

    t = threading.Thread(target=consume, daemon=True)
    t.start()
    import time

    time.sleep(0.2)
    assert got == []  # still blocked
    writer.write_step({"late": True})
    t.join(timeout=10)
    assert got == [{"late": True}]


def test_back_pressure_blocks_writer():
    writer = StreamWriter(queue_limit=2, backpressure_timeout=30.0)
    try:
        writer.write_step({"i": 0})
        writer.write_step({"i": 1})
        blocked = threading.Event()
        proceeded = threading.Event()

        def produce():
            blocked.set()
            writer.write_step({"i": 2})  # must block: window full
            proceeded.set()

        t = threading.Thread(target=produce, daemon=True)
        t.start()
        blocked.wait(timeout=5)
        import time

        time.sleep(0.2)
        assert not proceeded.is_set()
        with StreamReader(writer.address) as reader:
            reader.read_step()  # releases one slot
            assert proceeded.wait(timeout=5)
        t.join(timeout=5)
    finally:
        writer.close()


def test_write_step_counters(writer):
    nbytes = writer.write_step({"x": np.ones(1000)})
    assert nbytes > 8000
    assert writer.steps_published == 1
    assert writer.bytes_published == nbytes


def test_reader_counters(writer):
    writer.write_step({"x": np.ones(10)})
    with StreamReader(writer.address) as reader:
        reader.read_step()
        assert reader.steps_consumed == 1
        assert reader.bytes_consumed > 0


def test_step_protocol_misuse(writer):
    with pytest.raises(TransportError):
        writer.put("x", 1)  # outside begin/end
    with pytest.raises(TransportError):
        writer.end_step()
    writer.begin_step()
    with pytest.raises(TransportError):
        writer.begin_step()
    writer.put("x", 1)
    writer.end_step()
    with StreamReader(writer.address) as reader:
        with pytest.raises(TransportError):
            reader.get("x")
        with pytest.raises(TransportError):
            reader.end_step()
        reader.begin_step()
        with pytest.raises(TransportError):
            reader.get("missing")
        reader.end_step()


def test_write_after_close_rejected():
    writer = StreamWriter()
    writer.close()
    with pytest.raises(TransportError):
        writer.begin_step()


def test_queue_limit_validation():
    with pytest.raises(TransportError):
        StreamWriter(queue_limit=0)


def test_connect_to_dead_writer():
    with pytest.raises(ServerError):
        StreamReader("127.0.0.1:1")


def test_large_step(writer):
    big = np.random.default_rng(0).random(500_000)  # ~4 MB
    writer.write_step({"field": big})
    with StreamReader(writer.address) as reader:
        step = reader.read_step()
        np.testing.assert_array_equal(step["field"], big)


def test_concurrent_producer_consumer_pipeline(writer):
    n = 20
    results = []

    def produce():
        for i in range(n):
            writer.write_step({"i": i, "data": np.full(100, float(i))})
        writer.finish()

    def consume():
        with StreamReader(writer.address) as reader:
            while True:
                step = reader.read_step()
                if step is None:
                    break
                results.append(step["i"])

    pt = threading.Thread(target=produce, daemon=True)
    ct = threading.Thread(target=consume, daemon=True)
    ct.start()
    pt.start()
    pt.join(timeout=20)
    ct.join(timeout=20)
    assert results == list(range(n))


# ---------------------------------------------------------------------------
# Streaming performance model
# ---------------------------------------------------------------------------


def test_streaming_model_cheaper_than_filesystem_small_messages():
    from repro.transport.models import FileSystemBackendModel

    ctx = TransportOpContext(local=False, concurrent_clients=96)
    stream = StreamingBackendModel()
    fs = FileSystemBackendModel()
    assert stream.write_time(1e6, ctx) < fs.write_time(1e6, ctx)


def test_streaming_model_pipeline_beats_sum_of_stages():
    spec_ctx = TransportOpContext(local=False)
    m = StreamingBackendModel()
    s = m.spec
    nbytes = 8e6
    unpipelined = (
        s.handshake_latency + s.serialization.time(nbytes) + nbytes / s.bandwidth_remote
    )
    assert m.write_time(nbytes, spec_ctx) < unpipelined


def test_streaming_model_incast_penalty():
    m = StreamingBackendModel()
    one = TransportOpContext(local=False, fan_in=1)
    many = TransportOpContext(local=False, fan_in=127)
    assert m.read_time(1e6, many) > m.read_time(1e6, one)


def test_streaming_model_negative_size():
    with pytest.raises(TransportError):
        StreamingBackendModel().write_time(-1, TransportOpContext())


def test_backpressure_timeout_raises():
    writer = StreamWriter(queue_limit=1, backpressure_timeout=0.2)
    try:
        writer.write_step({"i": 0})
        with pytest.raises(TransportError, match="window full"):
            writer.write_step({"i": 1})  # no reader: must raise, not hang
    finally:
        writer.close()


def test_reader_refuses_an_oversized_payload_len_without_allocating():
    """A hostile writer declaring 2**63 bytes gets a dropped connection."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]

    def hostile():
        conn, _ = listener.accept()
        with conn:
            conn.recv(9)
            conn.sendall(struct.pack("<BQ", streaming.STATUS_STEP, 2**63))
            conn.recv(1)  # returns b"" once the reader hangs up

    thread = threading.Thread(target=hostile, daemon=True)
    thread.start()
    try:
        reader = StreamReader(f"127.0.0.1:{port}", timeout=5.0)
        with pytest.raises(CorruptPayloadError, match="step limit"):
            reader.begin_step()
    finally:
        thread.join(timeout=5.0)
        listener.close()
    assert not thread.is_alive()


def test_writer_refuses_to_publish_an_oversized_step(writer, monkeypatch):
    monkeypatch.setattr(streaming, "MAX_STEP_BYTES", 1024)
    writer.write_step({"ok": np.zeros(8)})
    with pytest.raises(TransportError, match="step limit"):
        writer.write_step({"big": np.zeros(1024)})
