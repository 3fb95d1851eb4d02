"""Subprocess entry for the sweep-store crash-recovery property tests.

Performs a fixed, deterministic sequence of store mutations with the
crash hook armed at a chosen fsync boundary; the parent test reopens the
store and asserts the committed state is a *prefix* of the sequence.
Must be a real process: the hook is ``os._exit`` mid-write, which a
thread or mock cannot faithfully reproduce.
"""

import json
import sys

N_POINTS = 6
GRID = "crashgrid"


def mutation_sequence(store):
    """The deterministic call list the parent asserts prefixes of.

    1 submit + N_POINTS record_done + 1 set_job_state = N_POINTS + 2
    waited mutations (each one commit/fsync) — the only calls the crash
    hook counts. Each record_done is preceded by the lease audit row
    the service would write, which nobody waits for and which rides
    that record_done's commit.
    """
    store.submit_job(
        GRID,
        name="crash-test",
        points=[(i, b"spec-%d" % i) for i in range(N_POINTS)],
        tenant="crash",
    )
    for i in range(N_POINTS):
        store.record_event(GRID, i, "lease", worker="w0")
        store.record_done(GRID, i, b"payload-%d" % i, worker="w0")
    store.set_job_state(GRID, "done")


def main(path, crash_op, crash_mode):
    from repro.sweep.dist.store import SweepStore

    store = SweepStore(path, _crash_op=crash_op, _crash_mode=crash_mode)
    mutation_sequence(store)
    # Only reached when the crash hook never fired (crash_op too large).
    store.close()
    print(json.dumps({"completed": True}))
    return 0


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    sys.exit(main(**spec))
