"""Tests for the content-addressed result cache and its fingerprints."""

import dataclasses
import enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SweepError
from repro.sweep import ResultCache, SweepPoint, fingerprint, point_key
from repro.sweep.cache import (
    grid_fingerprint,
    grid_fingerprint_of,
    point_fingerprint,
    point_identity,
)


def work(a, b=0):
    return a + b


class Color(enum.Enum):
    RED = 1
    BLUE = 2


@dataclasses.dataclass
class Cell:
    backend: str
    nbytes: int


class Opaque:
    pass


class WithSpec:
    def to_spec(self):
        return {"kind": "lognormal", "mu": 1.5}


# -- fingerprint -----------------------------------------------------------


def test_fingerprint_primitives_round_trip_floats():
    assert fingerprint(0.1) == repr(0.1)
    assert fingerprint(True) != fingerprint(1) or repr(True) == repr(1)
    assert fingerprint(None) == "None"
    assert fingerprint("x") == "'x'"


def test_fingerprint_dict_is_key_order_invariant():
    assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})


def test_fingerprint_distinguishes_list_from_tuple():
    assert fingerprint([1, 2]) != fingerprint((1, 2))


def test_fingerprint_enum_dataclass_and_spec_objects():
    assert fingerprint(Color.RED) == "Color.RED"
    assert fingerprint(Cell("redis", 4)) == fingerprint(Cell("redis", 4))
    assert fingerprint(Cell("redis", 4)) != fingerprint(Cell("redis", 8))
    assert fingerprint(WithSpec()) == fingerprint(WithSpec())


def test_fingerprint_numpy_values():
    assert fingerprint(np.float64(0.25)) == fingerprint(0.25)
    a = np.arange(6, dtype=np.int64).reshape(2, 3)
    assert fingerprint(a) == fingerprint(a.copy())
    assert fingerprint(a) != fingerprint(a.T.copy())


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


def generic_dict_fingerprint(obj):
    """The generic dict branch of ``fingerprint``, kept as the reference
    its one-pass fast path for flat kwargs must equal."""
    inner = ",".join(
        f"{fingerprint(k)}:{fingerprint(obj[k])}" for k in sorted(obj, key=repr)
    )
    return f"{{{inner}}}"


KEYS = st.one_of(
    st.text(max_size=8),
    st.sampled_from(["a b", "1x", "'", '"', "\\", "it's", 'say "hi"', "\\n", "\n", "é"]),
)
VALUES = st.one_of(
    st.text(max_size=8),
    st.integers(),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.none(),
    st.floats(allow_nan=True).map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.sampled_from(list(Level)),
)


@settings(max_examples=300, deadline=None)
@given(kwargs=st.dictionaries(KEYS, VALUES, max_size=6))
def test_flat_dict_fast_path_renders_like_the_generic_branch(kwargs):
    assert fingerprint(kwargs) == generic_dict_fingerprint(kwargs)


def test_dicts_outside_the_fast_path_render_as_before():
    for obj in ({1: "a", "b": 2}, {"a": [1, 2]}, {"a": Color.RED}, {"a": {"b": 1}}):
        assert fingerprint(obj) == generic_dict_fingerprint(obj)


def test_fingerprint_rejects_address_based_repr():
    with pytest.raises(SweepError, match="cannot fingerprint"):
        fingerprint(Opaque())


# -- point_key -------------------------------------------------------------


def test_point_key_stable_and_sensitive():
    key = point_key("m:f", {"a": 1})
    assert key == point_key("m:f", {"a": 1})
    assert key != point_key("m:f", {"a": 2})
    assert key != point_key("m:g", {"a": 1})
    assert key != point_key("m:f", {"a": 1}, version="999.0")
    assert len(key) == 64  # sha256 hex


def test_identities_are_the_bytes_recorded_before_the_single_rendering(tmp_path):
    """Keys name cache files and fingerprints sit in service stores: the
    digests below were printed by the commit before ``point_identity``."""
    kwargs = {"a": 1, "b": [1.5, "x"]}
    key = "071bce09740bd17e3043bc3fef5b7e33134b46e34988ddced594cd2b982e0293"
    fp = "e35ee40ae3ba52edfd1941b9aff49071b818ad81164d5b974f8ba49b362e582f"
    assert point_identity("m:f", kwargs, version="1.0") == (key, fp)
    assert point_key("m:f", kwargs, version="1.0") == key
    assert point_fingerprint("m:f", kwargs) == fp
    points = [SweepPoint(func=work, kwargs={"a": i}) for i in range(3)]
    grid = "f6a66d55d02a42e5b6f0701f158d826484b8d06dd36395e199bcef2a1b53aa4b"
    assert grid_fingerprint(enumerate(points)) == grid
    cache = ResultCache(tmp_path, version="1.0")
    identities = [cache.identity_for(p) for p in points]
    assert [k for k, _ in identities] == [cache.key_for(p) for p in points]
    assert grid_fingerprint_of(enumerate(f for _, f in identities)) == grid
    assert cache._path(key) == tmp_path / "07" / f"{key}.pkl"


def test_telemetry_flag_not_part_of_cache_key(tmp_path):
    cache = ResultCache(tmp_path)
    plain = SweepPoint(func=work, kwargs={"a": 1})
    traced = SweepPoint(func=work, kwargs={"a": 1}, telemetry=True)
    assert cache.key_for(plain) == cache.key_for(traced)


# -- ResultCache -----------------------------------------------------------


def test_cache_roundtrip_and_stats(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    assert cache.lookup(key) is None
    cache.store(key, {"result": 42}, meta={"label": "p"})
    entry = cache.lookup(key)
    assert entry["value"] == {"result": 42}
    assert entry["meta"]["label"] == "p"
    assert cache.stats.hits == 1
    assert cache.stats.misses == 1
    assert cache.stats.stores == 1
    assert cache.stats.hit_rate == 0.5
    assert len(cache) == 1


def test_cache_corrupt_entry_is_a_miss(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    cache.store(key, "good")
    path = cache._path(key)
    path.write_bytes(b"not a pickle")
    assert cache.lookup(key) is None
    assert cache.stats.invalid == 1
    # storing again repairs the entry
    cache.store(key, "repaired")
    assert cache.lookup(key)["value"] == "repaired"


def test_cache_version_change_misses(tmp_path):
    old = ResultCache(tmp_path, version="1")
    new = ResultCache(tmp_path, version="2")
    point = SweepPoint(func=work, kwargs={"a": 1})
    old.store(old.key_for(point), "old-value")
    assert new.lookup(new.key_for(point)) is None


def test_cache_clear(tmp_path):
    cache = ResultCache(tmp_path)
    for a in range(3):
        cache.store(point_key("m:f", {"a": a}), a)
    assert len(cache) == 3
    assert cache.clear() == 3
    assert len(cache) == 0


# -- eviction (size/age LRU over entry mtime) ------------------------------


def _age(cache, key, seconds):
    """Backdate an entry's mtime by ``seconds``."""
    import os
    import time

    path = cache._path(key)
    stamp = time.time() - seconds
    os.utime(path, (stamp, stamp))


def test_evict_by_age_drops_only_stale_entries(tmp_path):
    cache = ResultCache(tmp_path)
    old = point_key("m:f", {"a": 1})
    fresh = point_key("m:f", {"a": 2})
    cache.store(old, "old")
    cache.store(fresh, "fresh")
    _age(cache, old, seconds=3600)

    assert cache.evict(max_age_seconds=600) == 1
    assert cache.lookup(old) is None
    assert cache.lookup(fresh)["value"] == "fresh"


def test_evict_by_size_removes_oldest_first(tmp_path):
    cache = ResultCache(tmp_path)
    keys = [point_key("m:f", {"a": a}) for a in range(4)]
    for rank, key in enumerate(keys):
        cache.store(key, "x" * 100)
        _age(cache, key, seconds=(4 - rank) * 100)  # keys[0] is oldest
    entry_size = cache._path(keys[0]).stat().st_size

    # Budget for exactly two entries: the two oldest must go.
    assert cache.evict(max_bytes=2 * entry_size) == 2
    assert cache.lookup(keys[0]) is None
    assert cache.lookup(keys[1]) is None
    assert cache.lookup(keys[2]) is not None
    assert cache.lookup(keys[3]) is not None


def test_evict_noop_when_under_budget(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(point_key("m:f", {"a": 1}), "v")
    assert cache.evict(max_bytes=10**9, max_age_seconds=10**9) == 0
    assert len(cache) == 1


def test_store_refreshes_mtime_and_rescues_entry_from_eviction(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    cache.store(key, "v1")
    _age(cache, key, seconds=3600)
    cache.store(key, "v2")  # rewrite = recent use
    assert cache.evict(max_age_seconds=600) == 0
    assert cache.lookup(key)["value"] == "v2"


# -- info / history --------------------------------------------------------


def test_info_reports_sizes_and_ages(tmp_path):
    cache = ResultCache(tmp_path)
    cache.store(point_key("m:f", {"a": 1}), "v")
    cache.store(point_key("m:f", {"a": 2}), "v" * 50)
    info = cache.info()
    assert info["entries"] == 2
    assert info["total_bytes"] > 0
    assert info["largest_bytes"] <= info["total_bytes"]
    assert info["oldest_age_seconds"] >= info["newest_age_seconds"] >= 0.0
    assert info["history"] == []


def test_record_history_round_trips_and_tolerates_torn_lines(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    cache.store(key, "v")
    cache.lookup(key)
    cache.record_history()
    with open(tmp_path / "history.jsonl", "a", encoding="utf-8") as fh:
        # Not records: a null time, a string rate, a bool count, a list.
        fh.write('{"time": null, "hits": 1, "misses": 0, "hit_rate": 1.0}\n')
        fh.write('{"time": 1.0, "hits": 1, "misses": 0, "hit_rate": "x"}\n')
        fh.write('{"time": 1.0, "hits": true, "misses": 0, "hit_rate": 1.0}\n')
        fh.write("[1, 2]\n")
        fh.write('{"torn": ')  # killed mid-append

    records = ResultCache(tmp_path).history()
    assert len(records) == 1
    assert records[0]["hits"] == 1 and records[0]["stores"] == 1


def test_record_history_skips_idle_runs(tmp_path):
    cache = ResultCache(tmp_path)
    cache.record_history()
    assert not (tmp_path / "history.jsonl").exists()


def test_history_limit_keeps_most_recent(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    for _ in range(5):
        cache.lookup(key)
        cache.record_history()
    records = cache.history(limit=2)
    assert len(records) == 2
    assert records[-1]["misses"] == 5  # counters accumulate per run
    assert cache.history(limit=0) == []


# -- concurrent-writer hardening -------------------------------------------


def test_lookup_retries_once_when_a_writer_lands_mid_read(tmp_path, monkeypatch):
    import pickle

    real_loads = pickle.loads
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    cache.store(key, "v")

    calls = {"n": 0}

    def torn_then_fine(data):
        calls["n"] += 1
        if calls["n"] == 1:
            raise EOFError("torn read under a concurrent writer")
        return real_loads(data)

    monkeypatch.setattr("repro.sweep.cache.pickle.loads", torn_then_fine)
    entry = cache.lookup(key)
    assert entry["value"] == "v"
    assert calls["n"] == 2
    assert cache.stats.hits == 1 and cache.stats.invalid == 0


def test_lookup_repairs_persistently_corrupt_entry(tmp_path):
    cache = ResultCache(tmp_path)
    key = point_key("m:f", {"a": 1})
    cache.store(key, "v")
    cache._path(key).write_bytes(b"garbage")

    assert cache.lookup(key) is None
    assert cache.stats.invalid == 1
    assert not cache._path(key).exists()  # repaired (unlinked)


def test_repair_tolerates_entry_vanishing_first(tmp_path):
    cache = ResultCache(tmp_path)
    cache._repair(tmp_path / "ab" / "nope.pkl")  # no raise
