"""Content-addressed on-disk cache for sweep point results.

Each cache entry is one executed :class:`~repro.sweep.point.SweepPoint`:
its return value plus the telemetry snapshot the run produced. Entries
are addressed by :func:`point_key` — a SHA-256 over a *canonical* string
rendering of (function identity, keyword arguments, package version) —
so the same grid cell always maps to the same file, re-running a sweep
only computes changed points, and bumping :data:`repro.__version__`
(which any behaviour-relevant code change must do) invalidates every
stale entry at once without a scan.

Layout (two-level fan-out keeps directories small on big sweeps)::

    <cache-dir>/
      ab/abcdef....pkl      # pickle of {"value": ..., "snapshot": ..., "meta": ...}
      history.jsonl         # one hit-rate record per run (record_history)

Writes are atomic (temp file + ``os.replace``) so a sweep killed
mid-write never leaves a truncated entry; unreadable or corrupt entries
are treated as misses and overwritten. Values are whatever the point
function returned — they must pickle, which every experiment result in
this repository does by construction (plain dataclasses and lists).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import os
import pickle
import tempfile
import time
from pathlib import Path
from typing import Any, Iterable, Optional, Sequence

from repro.errors import SweepError
from repro.version import __version__

#: Bytes written before the pickled payload, bumped when the entry
#: format itself (not the cached computation) changes shape.
_FORMAT = "repro-sweep-cache-v1"

#: Domain prefix of :func:`point_fingerprint`; bumped only if the
#: canonical rendering itself ever changes shape (which would orphan
#: every recorded fingerprint, so: don't).
_POINT_FORMAT = "repro-sweep-point-v1"

#: Fields of a ``history.jsonl`` record that must be numbers; a line
#: where one is not is skipped like a torn append.
_HISTORY_NUMBERS = ("time", "hits", "misses", "hit_rate")

#: Value types a flat kwargs dict renders in one pass (see
#: :func:`fingerprint`): exact types only, whose generic rendering is
#: ``repr``. Subclasses (``np.float64``, ``IntEnum``) take the long way.
_PLAIN = frozenset((str, int, bool, float, type(None)))


def fingerprint(obj: Any) -> str:
    """A canonical, process-stable string rendering of ``obj``.

    Covers the kwarg vocabulary of the experiment grids: primitives
    (floats via ``repr`` for full precision), strings/bytes, sequences,
    mappings (key-sorted), sets (element-sorted), enums, dataclasses
    (class name + field mapping), numpy scalars/arrays, and objects
    exposing ``to_spec()``/``to_dict()`` (distributions, fault plans).
    Anything falling back to a default ``object.__repr__`` (which embeds
    a memory address) is rejected — a cache key built from it would
    never hit.
    """
    if type(obj) is dict:
        # Fast path for a grid cell's kwargs: str keys and plain values
        # render as the generic dict branch below would, in one pass.
        pairs = []
        for key, value in obj.items():
            if type(key) is not str or type(value) not in _PLAIN:
                break
            pairs.append((repr(key), repr(value)))
        else:
            pairs.sort()
            return "{" + ",".join([f"{key}:{value}" for key, value in pairs]) + "}"
    if obj is None or isinstance(obj, (bool, int, str)):
        return repr(obj)
    if isinstance(obj, float):
        # repr round-trips doubles exactly; cast first so numpy float
        # subclasses render identically to the equal python float.
        return repr(float(obj))
    if isinstance(obj, bytes):
        return f"bytes:{hashlib.sha256(obj).hexdigest()}"
    if isinstance(obj, enum.Enum):
        return f"{type(obj).__name__}.{obj.name}"
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        fields = {
            f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)
        }
        return f"{type(obj).__name__}({fingerprint(fields)})"
    for method in ("to_spec", "to_dict"):
        converter = getattr(obj, method, None)
        if callable(converter):
            return f"{type(obj).__name__}:{fingerprint(converter())}"
    if isinstance(obj, (list, tuple)):
        inner = ",".join(fingerprint(v) for v in obj)
        return f"[{inner}]" if isinstance(obj, list) else f"({inner})"
    if isinstance(obj, dict):
        inner = ",".join(
            f"{fingerprint(k)}:{fingerprint(obj[k])}" for k in sorted(obj, key=repr)
        )
        return f"{{{inner}}}"
    if isinstance(obj, (set, frozenset)):
        return f"set[{','.join(sorted(fingerprint(v) for v in obj))}]"
    try:  # numpy scalars and arrays, without importing numpy eagerly
        import numpy as np

        if isinstance(obj, np.generic):
            return fingerprint(obj.item())
        if isinstance(obj, np.ndarray):
            return (
                f"ndarray{obj.shape}:"
                f"{hashlib.sha256(np.ascontiguousarray(obj).tobytes()).hexdigest()}"
            )
    except ImportError:  # pragma: no cover
        pass
    rendered = repr(obj)
    if " at 0x" in rendered:
        raise SweepError(
            f"cannot fingerprint {type(obj).__name__} for the sweep cache: "
            "give it a to_spec()/to_dict() or a value-based __repr__"
        )
    return f"{type(obj).__name__}:{rendered}"


def point_identity(func_path: str, kwargs: dict, version: str = __version__) -> tuple[str, str]:
    """``(point_key, point_fingerprint)`` of one point, from one rendering.

    Rendering the keyword arguments is most of the cost of either; a
    caller that needs both (the engine's lookup loop, a SUBMIT) asks here.
    """
    rendered = f"{func_path}|{fingerprint(dict(kwargs))}"
    return (
        hashlib.sha256(f"{_FORMAT}|{version}|{rendered}".encode("utf-8")).hexdigest(),
        hashlib.sha256(f"{_POINT_FORMAT}|{rendered}".encode("utf-8")).hexdigest(),
    )


def point_key(func_path: str, kwargs: dict, version: str = __version__) -> str:
    """The content address of one sweep point under one code version."""
    return point_identity(func_path, kwargs, version)[0]


def point_fingerprint(func_path: str, kwargs: dict) -> str:
    """The version-INDEPENDENT content identity of one sweep point.

    Same canonical rendering as :func:`point_key` but deliberately
    *without* ``repro.__version__``: where the point key answers "may I
    reuse this cached result?" (no, if the code changed), the
    fingerprint answers "is this the same experiment cell?" across code
    versions. The service store records it per point so cross-version
    queries ("all fig6 runs of this cell, ever") and version-divergence
    detection (same fingerprint, different result payload under a
    different version) are one indexed join — see
    :mod:`repro.sweep.dist.query`.
    """
    return point_identity(func_path, kwargs)[1]


def grid_fingerprint(points: "Sequence[tuple[int, Any]]") -> str:
    """Version-independent content identity of a whole (sub)grid.

    SHA-256 over the indexed :func:`point_fingerprint` of every cell —
    the version-free analogue of
    :func:`repro.sweep.dist.protocol.grid_signature`. Recorded with each
    cache-history row so hit-rate history stays joinable to the grid
    content that produced it even after a version bump reshuffles every
    point key.
    """
    return grid_fingerprint_of(
        (index, point_fingerprint(point.func_path, point.kwargs)) for index, point in points
    )


def grid_fingerprint_of(fingerprints: "Iterable[tuple[int, str]]") -> str:
    """:func:`grid_fingerprint` from ``(index, point fingerprint)`` pairs
    the caller already holds."""
    digest = hashlib.sha256()
    for index, fp in fingerprints:
        digest.update(f"{int(index)}:{fp}\n".encode("utf-8"))
    return digest.hexdigest()


@dataclasses.dataclass
class CacheStats:
    """Hit/miss accounting for one sweep run."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0  # unreadable/corrupt entries treated as misses

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "invalid": self.invalid,
            "hit_rate": self.hit_rate,
        }


class ResultCache:
    """Content-addressed pickle store under one directory."""

    def __init__(self, directory: str | Path, version: str = __version__) -> None:
        self.directory = Path(directory)
        self.version = version
        self.directory.mkdir(parents=True, exist_ok=True)
        self._root = os.fspath(self.directory)
        self.stats = CacheStats()

    def key_for(self, point) -> str:
        """The cache key of a :class:`~repro.sweep.point.SweepPoint`.

        The ``telemetry`` flag is deliberately *not* part of the key: it
        changes what gets observed, never what gets computed, and the
        entry stores the snapshot either way.
        """
        return self.identity_for(point)[0]

    def identity_for(self, point) -> tuple[str, str]:
        """``(cache key, version-free fingerprint)`` of a point: see
        :func:`point_identity`."""
        return point_identity(point.func_path, point.kwargs, self.version)

    def _file(self, key: str) -> str:
        # A plain string: lookup and store run once per cell per sweep,
        # and two pathlib joins were a fifth of a warm replay.
        return f"{self._root}{os.sep}{key[:2]}{os.sep}{key}.pkl"

    def _path(self, key: str) -> Path:
        return Path(self._file(key))

    # -- read --------------------------------------------------------------
    def lookup(self, key: str) -> Optional[dict]:
        """The stored ``{"value", "snapshot", "meta"}`` entry, or None.

        Robust against concurrent writers: a partial/corrupt read is
        retried once (the writer may have finished an atomic
        ``os.replace`` in between) before the bad entry is repaired
        (unlinked) and the lookup reported as a miss.
        """
        path = self._file(key)
        for attempt in (1, 2):
            try:
                # One unbuffered read of the whole entry, then one loads.
                with open(path, "rb", buffering=0) as handle:
                    entry = pickle.loads(handle.read())
            except FileNotFoundError:
                self.stats.misses += 1
                return None
            except Exception:  # truncated/corrupt/unpicklable
                entry = None
            if isinstance(entry, dict) and entry.get("format") == _FORMAT:
                self.stats.hits += 1
                return entry
            if attempt == 1:
                continue  # retry once: a concurrent store may just have landed
        self.stats.invalid += 1
        self.stats.misses += 1
        self._repair(path)
        return None

    def _repair(self, path: "str | Path") -> None:
        """Drop a corrupt entry so the recomputed result replaces it.

        Tolerates the entry vanishing (or being rewritten and locked)
        between detection and unlink — another process may have repaired
        or replaced it first; either way the recompute-and-store path
        handles the rest.
        """
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- write -------------------------------------------------------------
    def store(self, key: str, value: Any, snapshot=None, meta: Optional[dict] = None) -> None:
        """Atomically persist one point result (last writer wins)."""
        path = self._file(key)
        parent = os.path.dirname(path)
        os.makedirs(parent, exist_ok=True)
        entry = {
            "format": _FORMAT,
            "version": self.version,
            "value": value,
            "snapshot": snapshot,
            "meta": dict(meta or {}),
        }
        fd, tmp = tempfile.mkstemp(dir=parent, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(entry, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.stats.stores += 1

    # -- maintenance -------------------------------------------------------
    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*/*.pkl"))

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        for path in self.directory.glob("*/*.pkl"):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def _entries(self) -> list[tuple[Path, float, int]]:
        """(path, mtime, size) for every entry that still exists."""
        out = []
        for path in self.directory.glob("*/*.pkl"):
            try:
                stat = path.stat()
            except (FileNotFoundError, OSError):
                continue  # concurrently evicted/repaired
            out.append((path, stat.st_mtime, stat.st_size))
        return out

    def evict(
        self,
        max_bytes: Optional[int] = None,
        max_age_seconds: Optional[float] = None,
        now: Optional[float] = None,
    ) -> int:
        """LRU eviction by entry mtime; returns how many entries went.

        ``max_age_seconds`` drops everything older than the horizon;
        ``max_bytes`` then removes oldest-first until the cache fits.
        ``os.replace`` on store refreshes mtime, so recently *written*
        entries survive; reads do not bump mtime (this is an LRU over
        writes, which for a content-addressed cache of deterministic
        results is the signal that matters: untouched entries belong to
        grids nobody sweeps any more).
        """
        entries = self._entries()
        doomed: set[Path] = set()
        if max_age_seconds is not None:
            horizon = (now if now is not None else time.time()) - max_age_seconds
            doomed.update(path for path, mtime, _ in entries if mtime < horizon)
        if max_bytes is not None:
            total = sum(size for path, _, size in entries if path not in doomed)
            for path, _, size in sorted(entries, key=lambda e: e[1]):  # oldest first
                if total <= max_bytes:
                    break
                if path in doomed:
                    continue
                doomed.add(path)
                total -= size
        removed = 0
        for path in doomed:
            try:
                path.unlink()
            except (FileNotFoundError, OSError):
                continue
            removed += 1
        return removed

    # -- introspection -------------------------------------------------------
    def info(self) -> dict:
        """Entry count, byte totals, age span, and recorded hit-rate history."""
        entries = self._entries()
        sizes = [size for _, _, size in entries]
        mtimes = [mtime for _, mtime, _ in entries]
        now = time.time()
        return {
            "directory": str(self.directory),
            "entries": len(entries),
            "total_bytes": sum(sizes),
            "largest_bytes": max(sizes) if sizes else 0,
            "oldest_age_seconds": now - min(mtimes) if mtimes else 0.0,
            "newest_age_seconds": now - max(mtimes) if mtimes else 0.0,
            "history": self.history(),
        }

    def record_history(self, fingerprint: Optional[str] = None) -> None:
        """Append this run's hit/miss counters to ``history.jsonl``.

        Best-effort: a read-only or contended cache directory must not
        fail the sweep. ``fingerprint`` is the run's
        :func:`grid_fingerprint`, recorded alongside the counters so
        hit-rate history joins to grid content across ``repro`` versions.
        """
        if self.stats.lookups == 0 and self.stats.stores == 0:
            return
        record = {"time": time.time(), **self.stats.as_dict()}
        if fingerprint:
            record["fingerprint"] = str(fingerprint)
        try:
            with open(self.directory / "history.jsonl", "a", encoding="utf-8") as fh:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass

    def history(self, limit: int = 20) -> list[dict]:
        """The most recent ``limit`` hit-rate records, oldest first.

        Lines that do not parse (a torn append) or whose ``time``,
        ``hits``, ``misses`` or ``hit_rate`` is not a number are skipped.
        """
        if limit <= 0:
            return []
        try:
            text = (self.directory / "history.jsonl").read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError):
            return []
        records = []
        for line in text.splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue  # torn append
            # type(), not isinstance(): JSON true/false are not counts.
            if isinstance(record, dict) and all(
                type(record.get(name)) in (int, float) for name in _HISTORY_NUMBERS
            ):
                records.append(record)
        return records[-limit:]
