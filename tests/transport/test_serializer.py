"""Tests for value serialization."""

import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as npst

from repro.errors import CorruptPayloadError, TransportError
from repro.transport import deserialize, serialize, serialized_nbytes
from repro.transport.serializer import serialize_parts
from tests.transport.memory import peak_bytes


def test_numpy_round_trip():
    a = np.arange(24.0).reshape(2, 3, 4)
    b = deserialize(serialize(a))
    np.testing.assert_array_equal(a, b)
    assert b.dtype == a.dtype
    assert b.shape == a.shape


def test_numpy_noncontiguous_round_trip():
    a = np.arange(16.0).reshape(4, 4).T
    np.testing.assert_array_equal(deserialize(serialize(a)), a)


def test_numpy_scalar_shapes():
    a = np.array(3.5)
    b = deserialize(serialize(a))
    assert b.shape == ()
    assert float(b) == 3.5


@pytest.mark.parametrize("dtype", ["float32", "float64", "int32", "int64", "uint8", "complex128", "bool"])
def test_numpy_dtypes(dtype):
    a = np.ones(7, dtype=dtype)
    b = deserialize(serialize(a))
    assert b.dtype == a.dtype
    np.testing.assert_array_equal(a, b)


def test_python_object_round_trip():
    obj = {"a": [1, 2, (3, 4)], "b": "text", "c": None}
    assert deserialize(serialize(obj)) == obj


def test_object_dtype_array_uses_pickle():
    a = np.array([{"x": 1}, {"y": 2}], dtype=object)
    b = deserialize(serialize(a))
    assert list(b) == list(a)


def test_deserialize_result_is_writable():
    a = np.ones(4)
    b = deserialize(serialize(a))
    b[0] = 42.0  # must not raise (frombuffer alone would be read-only)


def test_parts_concatenate_to_the_blob_and_view_the_array():
    a = np.arange(1000.0)
    header, payload = serialize_parts(a)
    assert header + bytes(payload) == serialize(a)
    # The payload is the array's own memory, not a copy of it.
    assert np.shares_memory(np.frombuffer(payload, dtype=a.dtype), a)
    header, payload = serialize_parts({"k": 1})
    assert header + bytes(payload) == serialize({"k": 1})


def test_payload_starts_on_a_64_byte_boundary():
    for a in (np.arange(5.0), np.zeros((3, 4, 5), dtype="<i2"), np.array(1 + 2j)):
        header, payload = serialize_parts(a)
        assert len(header) % 64 == 0
        assert payload.nbytes == a.nbytes


def test_writable_buffer_is_adopted_aligned_and_writable():
    a = np.arange(4096, dtype=np.complex128)
    buffer = bytearray(serialize(a))
    b = deserialize(buffer)
    np.testing.assert_array_equal(a, b)
    assert b.flags.aligned and b.flags.writeable
    assert np.shares_memory(b, np.frombuffer(buffer, dtype=np.uint8))


def test_read_only_buffer_is_copied_once_and_left_alone():
    a = np.arange(16.0)
    blob = serialize(a)
    for source in (blob, memoryview(blob)):
        b = deserialize(source)
        assert b.flags.aligned and b.flags.writeable
        b[:] = -1.0
    np.testing.assert_array_equal(deserialize(blob), a)


#: Written by the serializer before headers were padded (payload at byte
#: 41): stored blobs of that shape must keep decoding.
LEGACY_UNPADDED_BLOB = (
    b'RNP1!\x00\x00\x00{"dtype": "<i4", "shape": [2, 3]}'
    b"\x00\x00\x00\x00\x01\x00\x00\x00\x02\x00\x00\x00"
    b"\x03\x00\x00\x00\x04\x00\x00\x00\x05\x00\x00\x00"
)


@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_legacy_unpadded_blob_still_decodes(wrap):
    b = deserialize(wrap(LEGACY_UNPADDED_BLOB))
    np.testing.assert_array_equal(b, np.arange(6, dtype="<i4").reshape(2, 3))
    assert b.dtype == np.dtype("<i4")
    assert b.flags.aligned and b.flags.writeable


@pytest.mark.parametrize(
    "array",
    [
        np.array(3.5),
        np.empty((0, 3), dtype=np.float32),
        np.arange(24.0).reshape(4, 6)[::2, 1::2],
        np.arange(5, dtype=">f8"),
        np.array([(1, 2.5, b"ab"), (3, 4.5, b"cd")],
                 dtype=[("i", "<i4"), ("x", "<f8"), ("s", "S2")]),
        np.zeros(3, dtype=np.dtype([("a", "i1"), ("b", "<f8")], align=True)),
        np.array(["2025-01-01", "2026-09-29"], dtype="M8[D]"),
        np.array([1, 2, 3], dtype="m8[ms]"),
        np.array(["a", "bcd"]),
    ],
    ids=["0d", "empty", "noncontiguous", "big-endian", "structured",
         "structured-aligned", "datetime64", "timedelta64", "unicode"],
)
@pytest.mark.parametrize("wrap", [bytes, bytearray])
def test_awkward_arrays_round_trip_exactly(array, wrap):
    b = deserialize(wrap(serialize(array)))
    assert b.dtype == array.dtype
    assert b.shape == array.shape
    np.testing.assert_array_equal(b, array)
    assert b.flags.writeable
    assert serialized_nbytes(array) == len(serialize(array))


def test_structured_array_with_object_field_uses_pickle():
    a = np.array([(1, {"x": 1})], dtype=[("i", "<i4"), ("o", object)])
    assert serialize(a).startswith(b"RPK1")
    assert deserialize(serialize(a))["o"][0] == {"x": 1}


def test_serialized_nbytes_does_not_copy_the_array():
    a = np.arange(1 << 16, dtype=np.float64).reshape(256, 256).T  # non-contiguous
    peak, size = peak_bytes(lambda: serialized_nbytes(a))
    assert size == len(serialize(a))
    assert peak < a.nbytes // 10


def test_serialized_nbytes_matches_numpy():
    a = np.arange(1000.0)
    assert serialized_nbytes(a) == len(serialize(a))


def test_serialized_nbytes_matches_pickle():
    obj = {"k": list(range(100))}
    assert serialized_nbytes(obj) == len(serialize(obj))


def test_deserialize_garbage():
    with pytest.raises(TransportError):
        deserialize(b"xx")
    with pytest.raises(TransportError):
        deserialize(b"XXXXsome unknown payload")


def test_deserialize_truncated_numpy():
    blob = serialize(np.ones(100))
    with pytest.raises(TransportError):
        deserialize(blob[:-8])


def _numpy_blob(dtype, shape, payload: bytes) -> bytes:
    """An ``RNP1`` blob with a hand-written (possibly hostile) header."""
    text = json.dumps({"dtype": dtype, "shape": shape}).encode()
    return b"RNP1" + struct.pack("<I", len(text)) + text + payload


@pytest.mark.parametrize(
    "dtype, shape, nbytes",
    [
        pytest.param("<f8", [-1, -4], 32, id="two-negative-dims"),  # product is +4
        pytest.param("<f8", [-1], 8, id="negative-dim"),
        pytest.param("<f8", [2.5, 2], 40, id="float-dim"),
        pytest.param("<f8", ["2", "2"], 32, id="string-dims"),
        pytest.param("<f8", [True, 4], 32, id="bool-dim"),
        pytest.param("<f8", "ab", 16, id="string-shape"),
        pytest.param("<f8", 4, 32, id="scalar-shape"),
        pytest.param("|O", [2], 16, id="object-dtype"),
        pytest.param([["a", "|O"], ["b", "<i4"]], [1], 12, id="object-field"),
        pytest.param("<f8", [2**62, 4], 0, id="int64-overflow"),  # wraps to 0 in numpy
        pytest.param("<f8", [3], 16, id="length-mismatch"),
    ],
)
def test_deserialize_hostile_numpy_header_is_corrupt_payload(dtype, shape, nbytes):
    with pytest.raises(CorruptPayloadError):
        deserialize(_numpy_blob(dtype, shape, bytes(nbytes)))


def test_deserialize_handwritten_header_still_decodes():
    got = deserialize(_numpy_blob("<f8", [2, 2], np.arange(4.0).tobytes()))
    np.testing.assert_array_equal(got, np.arange(4.0).reshape(2, 2))


def test_deserialize_corrupt_pickle():
    with pytest.raises(TransportError):
        deserialize(b"RPK1not-a-pickle")


@settings(max_examples=50, deadline=None)
@given(
    arr=npst.arrays(
        dtype=st.sampled_from([np.float64, np.int32, np.uint16]),
        shape=npst.array_shapes(max_dims=3, max_side=8),
    )
)
def test_numpy_round_trip_property(arr):
    out = deserialize(serialize(arr))
    np.testing.assert_array_equal(out, arr)
    assert out.dtype == arr.dtype


@settings(max_examples=50)
@given(
    obj=st.recursive(
        st.none() | st.booleans() | st.integers() | st.text(max_size=20),
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(st.text(max_size=8), children, max_size=4),
        max_leaves=10,
    )
)
def test_object_round_trip_property(obj):
    assert deserialize(serialize(obj)) == obj
