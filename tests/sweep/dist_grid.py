"""Helper grid for the distributed-sweep subprocess tests.

Point functions live here (module top level) so worker *processes* can
import them when unpickling assignments; ``serve_main`` is the
serving-sweep entry the tests launch as a subprocess.
"""

import json
import os
import sys
import time


def slow_add(x, y, delay=0.05, log=None):
    """Deterministic value with a tunable duration and an execution log."""
    if log:
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{x}:{os.getpid()}\n")
            fh.flush()
    time.sleep(delay)
    return x + y


def flaky_once_add(x, y, marker):
    """``x + y``, after a retryable failure on the first attempt only
    (the ``marker`` file records that the attempt was made)."""
    from repro.errors import BackendUnavailableError

    try:
        with open(marker, "x", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    except FileExistsError:
        return x + y
    raise BackendUnavailableError(f"transient failure of cell {x}")


def always_fail(x):
    raise ValueError(f"cell {x} always fails")


def serve_main(
    address,
    n=12,
    delay=0.05,
    lease=1.0,
    journal=None,
    log=None,
):
    """Serve an ``n``-point grid; print the report as JSON on success."""
    from repro.sweep import SweepEngine, SweepOptions, SweepPoint

    points = [
        SweepPoint(slow_add, {"x": x, "y": 1, "delay": delay, "log": log})
        for x in range(n)
    ]
    options = SweepOptions(
        serve=address, lease_seconds=lease, journal_dir=journal or None
    )
    report = SweepEngine(options).run(points)
    print(
        json.dumps(
            {
                "values": report.values,
                "computed": report.computed,
                "replayed": report.replayed,
                "reclaims": report.reclaims,
            }
        )
    )
    return 0


if __name__ == "__main__":
    spec = json.loads(sys.argv[1])
    sys.exit(serve_main(**spec))
