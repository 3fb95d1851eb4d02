"""The legacy JSONL journal format, as the one-shot importer reads it.

``--serve`` no longer writes journals — its durable log is the
:class:`SweepStore` in the ``--journal`` directory — so
:func:`migrate_journal_file` is the only code that still parses the v1
record stream. The format cases live on here against it: what a
journal proved (``done``/``poisoned``) lands in the store, the lease
lifecycle stays an audit trail, and a writer killed mid-append costs
only its torn final record.
"""

import base64
import json
import pickle

import pytest

from repro.sweep.dist.store import JOB_CANCELLED, SweepStore, migrate_journal_file

SIG = "a" * 64


def header(n_points=4):
    return {
        "type": "header",
        "format": "repro-sweep-journal-v1",
        "grid": SIG,
        "n_points": n_points,
    }


def done(index, value, snapshot=None):
    payload = pickle.dumps({"value": value, "snapshot": snapshot})
    return {
        "type": "done",
        "index": index,
        "payload": base64.b64encode(payload).decode("ascii"),
    }


def poisoned(index):
    return {
        "type": "poisoned",
        "index": index,
        "failures": [{"worker": "w", "error": "boom"}],
    }


def write_journal(tmp_path, records, tail=""):
    path = tmp_path / f"{SIG[:24]}.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records) + tail)
    return path


def imported_values(store):
    return {
        index: pickle.loads(blob)["value"]
        for index, blob in store.done_payloads(SIG).items()
    }


@pytest.fixture
def store(tmp_path):
    with SweepStore(tmp_path / "store.sqlite") as store:
        yield store


class TestRoundTrip:
    def test_empty_journal_replays_empty(self, store, tmp_path):
        assert migrate_journal_file(store, write_journal(tmp_path, [])) is None
        assert migrate_journal_file(store, tmp_path / "missing.jsonl") is None
        assert store.jobs() == []

    def test_done_records_round_trip(self, store, tmp_path):
        journal = write_journal(
            tmp_path,
            [header(), done(0, {"metric": 1.5}), done(2, [1, 2, 3], {"spans": []})],
        )
        assert migrate_journal_file(store, journal) == SIG
        payloads = store.done_payloads(SIG)
        assert pickle.loads(payloads[0]) == {"value": {"metric": 1.5}, "snapshot": None}
        assert pickle.loads(payloads[2]) == {
            "value": [1, 2, 3],
            "snapshot": {"spans": []},
        }

    def test_poisoned_records_survive_unless_later_done(self, store, tmp_path):
        journal = write_journal(
            tmp_path,
            # Point 3 was quarantined, then a later session succeeded.
            [header(), poisoned(1), poisoned(3), done(3, "fixed")],
        )
        migrate_journal_file(store, journal)
        assert sorted(store.poisoned_points(SIG)) == [1]
        assert imported_values(store) == {3: "fixed"}

    def test_each_session_appends_a_header(self, store, tmp_path):
        # Three sessions of one grid are one job, not three.
        journal = write_journal(
            tmp_path, [header(), done(0, 1), header(), header(), done(1, 2)]
        )
        migrate_journal_file(store, journal)
        (job,) = store.jobs()
        assert job["grid"] == SIG and job["n_points"] == 4
        assert imported_values(store) == {0: 1, 1: 2}

    def test_transitions_are_audit_only(self, store, tmp_path):
        journal = write_journal(
            tmp_path,
            [
                header(),
                {"type": "lease", "index": 0, "worker": "w1"},
                {"type": "reclaim", "index": 0, "worker": None},
            ],
        )
        migrate_journal_file(store, journal)
        assert store.done_payloads(SIG) == {}
        assert store.job(SIG)["state"] == JOB_CANCELLED  # it never finished
        events = [(e["event"], e["idx"]) for e in store.events(SIG)]
        assert ("lease", 0) in events and ("reclaim", 0) in events


class TestCorruption:
    def test_torn_tail_is_tolerated(self, store, tmp_path):
        journal = write_journal(
            tmp_path,
            [header(), done(0, 42)],
            tail='{"type": "done", "index": 1, "payl',  # killed mid-append
        )
        migrate_journal_file(store, journal)
        assert imported_values(store) == {0: 42}
