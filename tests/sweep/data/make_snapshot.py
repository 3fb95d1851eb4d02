"""Generator for the checked-in schema-v1 store snapshot.

``store_v1.sqlite`` was produced by running this script against the
**schema-v1** ``repro.sweep.dist.store`` (the PR that introduced schema
v2 ran it immediately *before* changing the code). It exists so the
v1->v2 migration tests exercise a store written by the real v1 writer,
not a hand-crafted approximation: real pickled ``SweepPoint`` specs,
real ``dump_result`` wire payloads (the v4 wire format of that era),
real submit/lease/done event rows, and ``history`` rows without a
fingerprint column.

Do **not** re-run this script casually: against v2+ code it would write
a current-schema store and the migration tests would silently test
nothing. It is kept for provenance and for the day a v2->v3 snapshot
has to be minted the same way.

Run from the repository root::

    PYTHONPATH=src:. python tests/sweep/data/make_snapshot.py
"""

import itertools
from pathlib import Path

from repro.sweep.dist.protocol import dump_result, grid_signature
from repro.sweep.dist.store import JOB_DONE, SweepStore
from repro.sweep.point import SweepPoint

from tests.sweep.dist_grid import slow_add

OUT = Path(__file__).parent / "store_v1.sqlite"


def main() -> None:
    if OUT.exists():
        raise SystemExit(f"{OUT} already exists; delete it first if you mean it")
    # Deterministic wall clock so the snapshot is reproducible.
    ticker = itertools.count(1_700_000_000)
    store = SweepStore(OUT, wall=lambda: float(next(ticker)))

    # Job A (alice): fully done — the migration must backfill a
    # fingerprint for every point and keep every payload byte-identical.
    points_a = [
        (i, SweepPoint(slow_add, {"x": i, "y": 1, "delay": 0.0})) for i in range(3)
    ]
    grid_a = grid_signature(points_a)
    store.submit_job(
        grid_a,
        name="fig-demo",
        points=[(i, _pickle(p)) for i, p in points_a],
        tenant="alice",
    )
    for i, point in points_a:
        store.record_event(grid_a, i, "lease", worker="w1")
        store.record_done(grid_a, i, dump_result(i + 1, None), worker="w1")
    store.set_job_state(grid_a, JOB_DONE)

    # Job B (bob): half finished — stays resumable across the migration.
    points_b = [
        (i, SweepPoint(slow_add, {"x": 10 + i, "y": 1, "delay": 0.0}))
        for i in range(2)
    ]
    grid_b = grid_signature(points_b)
    store.submit_job(
        grid_b,
        name="fig-demo",
        points=[(i, _pickle(p)) for i, p in points_b],
        tenant="bob",
    )
    store.record_event(grid_b, 0, "lease", worker="w2")
    store.record_done(grid_b, 0, dump_result(11, None), worker="w2")
    store.set_job_state(grid_b, "running")
    store.close()
    import sqlite3

    conn = sqlite3.connect(OUT)
    # Two v1 history rows (no fingerprint column existed).
    conn.executemany(
        "INSERT INTO history (time, hits, misses, stores, invalid, hit_rate)"
        " VALUES (?, ?, ?, ?, ?, ?)",
        [(1.0, 1, 2, 2, 0, 1 / 3), (2.0, 3, 0, 0, 0, 1.0)],
    )
    conn.commit()
    # Fold the WAL back into the main file so the snapshot is one file.
    conn.execute("PRAGMA journal_mode=DELETE")
    conn.close()
    print(f"wrote {OUT} ({OUT.stat().st_size} bytes): jobs {grid_a[:12]} {grid_b[:12]}")


def _pickle(point: SweepPoint) -> bytes:
    import pickle

    return pickle.dumps(point, protocol=pickle.HIGHEST_PROTOCOL)


if __name__ == "__main__":
    main()
