"""Sharded file-based key-value store (the node-local / filesystem backends).

Implements exactly the design described in the paper (§3.2):

* a configurable number of shard directories; the shard for a key is
  chosen by hashing the key with **CRC32**;
* writes are atomic: the value is first written to a temporary file in the
  same shard, then ``os.replace``'d to its final name ``<key>.pickle`` —
  readers never observe a torn write;
* ``poll`` is a file-existence check, ``clean`` unlinks.

Atomic means visible whole or not at all; it does not mean durable. A
staged value lives as long as the run that reads it, so nothing is
flushed. The temp file's size is stated (``posix_fallocate``) before its
bytes are written: ext4 (``auto_da_alloc``) starts writeback of a file
with delayed-allocation blocks when it is renamed over an existing one,
and a preallocated file has none, so republishing a key stays a
metadata operation. After a host crash a published file can read as
zeros or be empty; either fails to deserialize
(:class:`~repro.errors.CorruptPayloadError`) rather than passing as data.

Pointing the root at a tmpfs directory gives the *node-local* backend;
pointing it at a parallel-file-system directory gives the *filesystem*
backend (the paper uses Lustre with stripe size 1 MB, count 1 — stripe
settings do not apply to local disks, so they are recorded but not acted
on here).
"""

from __future__ import annotations

import os
import tempfile
import zlib
from pathlib import Path
from typing import Any, Optional

from repro.errors import BackendUnavailableError, KeyNotStagedError, TransportError
from repro.transport.base import DataStoreClient
from repro.transport.serializer import deserialize, serialize_parts
from repro.transport.wire import Blob, as_parts, landing, nbytes

VALUE_SUFFIX = ".pickle"
_HAS_FALLOCATE = hasattr(os, "posix_fallocate")  # not on macOS


def crc32_shard(key: str, n_shards: int) -> int:
    """Shard index for a key (CRC32 of the UTF-8 key, mod shard count)."""
    if n_shards <= 0:
        raise TransportError(f"n_shards must be positive, got {n_shards}")
    return zlib.crc32(key.encode("utf-8")) % n_shards


class ShardedFileStore:
    """The on-disk store: shard layout + atomic write/read/poll/clean."""

    def __init__(self, root: str | os.PathLike, n_shards: int = 1) -> None:
        if n_shards <= 0:
            raise TransportError(f"n_shards must be positive, got {n_shards}")
        self.root = Path(root)
        self.n_shards = n_shards
        for shard in range(n_shards):
            self._shard_dir(shard).mkdir(parents=True, exist_ok=True)

    def _shard_dir(self, shard: int) -> Path:
        return self.root / f"shard{shard:04d}"

    def path_for(self, key: str) -> Path:
        return self._shard_dir(crc32_shard(key, self.n_shards)) / f"{key}{VALUE_SUFFIX}"

    # -- operations ------------------------------------------------------------
    def write(self, key: str, blob: Blob) -> None:
        """Atomically publish ``blob`` under ``key`` (not flushed to disk)."""
        final = self.path_for(key)
        parts = as_parts(blob)
        try:
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{key}.", suffix=".tmp", dir=final.parent
            )
        except OSError as exc:
            raise BackendUnavailableError(
                f"cannot stage into {final.parent}: {exc}"
            ) from exc
        try:
            try:
                if _HAS_FALLOCATE:
                    try:  # a hint (see the module docstring): writes report real errors
                        os.posix_fallocate(fd, 0, sum(map(nbytes, parts)))
                    except OSError:
                        pass
                # Each piece goes to the kernel from the caller's own
                # memory, with no staging copy in a userspace file buffer.
                for piece in parts:
                    view = memoryview(piece).cast("B")
                    while view.nbytes:
                        view = view[os.write(fd, view) :]
            finally:
                os.close(fd)
            os.replace(tmp_name, final)  # atomic publish
        except BaseException as exc:
            try:
                os.unlink(tmp_name)
            except FileNotFoundError:
                pass
            if isinstance(exc, OSError):
                raise BackendUnavailableError(f"cannot write key {key!r}: {exc}") from exc
            raise

    def read(self, key: str) -> bytearray:
        """The stored blob, in a new :func:`~repro.transport.wire.landing`
        buffer the caller owns."""
        try:
            with open(self.path_for(key), "rb", buffering=0) as handle:
                # Sized from fstat and filled in place; a published file
                # never changes (writers replace it), so the size holds.
                blob = landing(os.fstat(handle.fileno()).st_size)
                view = memoryview(blob)
                while view.nbytes:
                    got = handle.readinto(view)
                    if not got:
                        raise BackendUnavailableError(
                            f"key {key!r} is shorter on disk than its fstat size"
                        )
                    view = view[got:]
                return blob
        except FileNotFoundError:
            raise KeyNotStagedError(key, backend="kvfile") from None
        except OSError as exc:
            raise BackendUnavailableError(f"cannot read key {key!r}: {exc}") from exc

    def poll(self, key: str) -> bool:
        return self.path_for(key).exists()

    def delete(self, key: str) -> bool:
        try:
            self.path_for(key).unlink()
            return True
        except FileNotFoundError:
            return False

    def keys(self) -> list[str]:
        found = []
        for shard in range(self.n_shards):
            for entry in self._shard_dir(shard).iterdir():
                if entry.name.endswith(VALUE_SUFFIX) and not entry.name.startswith("."):
                    found.append(entry.name[: -len(VALUE_SUFFIX)])
        return sorted(found)

    def clear(self) -> int:
        removed = 0
        for key in self.keys():
            removed += int(self.delete(key))
        return removed


class FileStoreClient(DataStoreClient):
    """DataStore client over a :class:`ShardedFileStore`.

    ``backend_name`` distinguishes the two deployments ("node-local" vs
    "filesystem") purely for reporting; behaviour is identical, which is
    the point — only the mount target differs.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        n_shards: int = 1,
        backend_name: str = "node-local",
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.backend_name = backend_name
        self.store = ShardedFileStore(root, n_shards=n_shards)

    def _write(self, key: str, value: Any) -> float:
        parts = serialize_parts(value)
        self.store.write(key, parts)
        return float(sum(map(nbytes, parts)))

    def _read(self, key: str) -> tuple[Any, float]:
        blob = self.store.read(key)
        return deserialize(blob), float(len(blob))

    def _poll(self, key: str) -> bool:
        return self.store.poll(key)

    def _clean(self, keys: Optional[list[str]]) -> int:
        if keys is None:
            return self.store.clear()
        return sum(int(self.store.delete(key)) for key in keys)
