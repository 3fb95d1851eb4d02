"""Value serialization for staging backends.

Staged values travel as bytes. Pickle handles arbitrary Python objects
(matching the paper's ``key.pickle`` files); numpy arrays get a
header+raw-buffer path that never walks a pickle graph and never copies
the payload on its own account: :func:`serialize_parts` hands out a view
of the array's memory for a vectored send or write, and
:func:`deserialize` wraps a writable buffer in place. The copies that
remain are named where they happen — one in :func:`serialize` (the join),
one in :func:`deserialize` when the buffer is read-only.

Buffer ownership: ``deserialize`` *adopts* a writable buffer — the array
it returns is that memory, so the caller must be handing over a buffer
nobody else reads or writes afterwards (every backend passes the
``bytearray`` it just received into). A read-only buffer (``bytes``) is
copied, so the result is always writable and always private.
"""

from __future__ import annotations

import json
import math
import pickle
import struct
from typing import Any

import numpy as np

from repro.errors import CorruptPayloadError

_MAGIC_NUMPY = b"RNP1"
_MAGIC_PICKLE = b"RPK1"
_HEADER_LEN = struct.Struct("<I")
#: The numpy payload starts at a multiple of this many bytes from the
#: start of the blob, so an array adopted from a malloc'd buffer is
#: aligned for every dtype.
_PAYLOAD_ALIGN = 64


def _is_raw_array(value: Any) -> bool:
    return isinstance(value, np.ndarray) and not value.dtype.hasobject


def _numpy_header(dtype: np.dtype, shape: tuple) -> bytes:
    """``RNP1`` + u32 length + JSON, space-padded to the payload alignment."""
    # dtype_to_descr is dtype.str for plain dtypes and a field list (which
    # survives JSON) for structured ones.
    text = json.dumps(
        {"dtype": np.lib.format.dtype_to_descr(dtype), "shape": list(shape)}
    ).encode("utf-8")
    text += b" " * (-(8 + len(text)) % _PAYLOAD_ALIGN)
    return _MAGIC_NUMPY + _HEADER_LEN.pack(len(text)) + text


def serialize_parts(value: Any) -> tuple[bytes, memoryview]:
    """Encode a value as ``(header, payload)``; the blob is their concatenation.

    For a C-contiguous array the payload is a view of the array's own
    memory (no copy); it stays valid only while the array is unchanged.
    """
    if _is_raw_array(value):
        # ascontiguousarray promotes 0-d to 1-d, hence the shape from value.
        flat = np.ascontiguousarray(value).reshape(-1)
        return (
            _numpy_header(value.dtype, value.shape),
            memoryview(flat.view(np.uint8)),
        )
    return _MAGIC_PICKLE, memoryview(
        pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    )


def serialize(value: Any) -> bytes:
    """Encode a value to bytes (one copy of the payload: the join)."""
    return b"".join(serialize_parts(value))


def deserialize(blob) -> Any:
    """Decode a buffer produced by :func:`serialize`.

    Accepts any byte buffer. Arrays come back writable and aligned: a
    writable buffer is adopted (see the module docstring), a read-only
    one is copied exactly once.
    """
    view = memoryview(blob).cast("B")
    if view.nbytes < 4:
        raise CorruptPayloadError(
            f"blob too short to deserialize ({view.nbytes} bytes)"
        )
    magic = bytes(view[:4])
    if magic == _MAGIC_NUMPY:
        if view.nbytes < 8:
            raise CorruptPayloadError("truncated numpy header length")
        payload_start = 8 + _HEADER_LEN.unpack_from(view, 4)[0]
        payload = view[payload_start:]
        try:
            header = json.loads(bytes(view[8:payload_start]))
            dtype = np.lib.format.descr_to_dtype(header["dtype"])
            shape = tuple(header["shape"])
            if dtype.hasobject:
                raise ValueError(f"object dtype {dtype} cannot be read from a buffer")
            if not all(type(n) is int and n >= 0 for n in shape):
                raise ValueError(f"bad shape {shape!r}")
            expected = dtype.itemsize * math.prod(shape)
            if payload.nbytes != expected:
                raise ValueError(f"payload length {payload.nbytes} != expected {expected}")
            array = np.frombuffer(payload, dtype=dtype).reshape(shape)
        except Exception as exc:
            raise CorruptPayloadError(f"corrupt numpy blob: {exc}") from exc
        # Blobs from before the header was padded can start the payload
        # anywhere; those take the copy too.
        if view.readonly or not array.flags.aligned:
            array = array.copy()
        return array
    if magic == _MAGIC_PICKLE:
        try:
            return pickle.loads(view[4:])
        except Exception as exc:
            raise CorruptPayloadError(f"corrupt pickle payload: {exc}") from exc
    raise CorruptPayloadError(f"unknown serialization magic {magic!r}")


def serialized_nbytes(value: Any) -> int:
    """Size in bytes a value will occupy when staged."""
    if _is_raw_array(value):
        return len(_numpy_header(value.dtype, value.shape)) + value.nbytes
    header, payload = serialize_parts(value)
    return len(header) + payload.nbytes
