"""Seeded open-loop load generator for the sweep service.

The "proof under load" half of the overload-protection layer: drives N
deliberately *misbehaving* tenants against a running service so tests
and the CI overload drill can assert the service sheds deterministically
instead of dying quietly. Three behaviors, all bounded by one wall-clock
deadline:

* **flood tenants** — each submits a stream of distinct grids at a fixed
  open-loop interval (arrivals do not wait for the system; that is what
  makes overload overload). A ``-BUSY`` refusal is recorded together
  with its ``retry_after_s`` hint and retried with the server's pacing
  until the per-grid budget runs out — exactly how a well-behaved
  client under quota pressure behaves, so the recorded hint stream *is*
  the assertion surface.
* **slow readers** — open a raw connection, pump STATUS commands, and
  never read a byte of reply (the slow-loris shape): the kernel buffers
  fill, the service's write deadline fires, and the generator records
  the disconnect it was promised.
* **half-open connects** — connect, send a torn frame prefix, and hold
  the socket silently: idle-deadline fodder. Routed through
  :class:`~repro.faults.netproxy.ChaosProxy` in the CI drill, these are
  indistinguishable from real half-open network failures.

Everything is seeded (:func:`~repro.sweep.point.derive_seed`): grid
contents are a pure function of ``(seed, tenant, grid index)`` — so the
drill can compute every admitted job's expected results byte-identically
without talking to the service — and all generator-side pacing jitter
comes from per-thread RNGs.

No new dependencies: stdlib + numpy, raw sockets beside the existing
RESP helpers.
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Optional

import numpy as np

from repro.errors import TransportError
from repro.sweep.dist.protocol import (
    dump_result,
    dump_submission,
    grid_signature,
    parse_busy,
    parse_hostport,
)
from repro.sweep.point import SweepPoint, derive_seed
from repro.transport import resp
from repro.transport.redis_backend import MiniRedisConnection
from repro.transport.wire import connect

#: A torn RESP frame: array header + first bulk announced but never
#: delivered — the half-open connect's opening (and only) words.
_TORN_FRAME = b"*2\r\n$6\r\nSUB"


def loadgen_point(x: float, scale: float = 1.0) -> float:
    """The unit of loadgen work: trivial, deterministic, importable."""
    return float(x) * float(scale)


def _canonical_point_func():
    """``loadgen_point`` resolved through its importable module path.

    Under ``python -m repro.sweep.dist.loadgen`` this module executes as
    ``__main__``, and a point pickled with the local function would name
    ``__main__.loadgen_point`` — unresolvable in the service process.
    """
    import importlib

    return importlib.import_module("repro.sweep.dist.loadgen").loadgen_point


def tenant_grid(
    seed: int, tenant: int, grid_index: int, n_points: int
) -> list[tuple[int, SweepPoint]]:
    """The ``grid_index``-th grid of flood tenant ``tenant`` — pure.

    Point kwargs are drawn from an RNG seeded by (seed, tenant, grid),
    so two runs with the same seed flood with byte-identical grids and
    the drill can recompute any admitted grid's expected results
    offline.
    """
    rng = np.random.default_rng(derive_seed(seed, "loadgen-grid", tenant, grid_index))
    func = _canonical_point_func()
    points = []
    for i in range(n_points):
        x = round(float(rng.uniform(-1000.0, 1000.0)), 6)
        points.append((i, SweepPoint(func=func, kwargs={"x": x, "scale": 2.0})))
    return points


def grid_expected(points: list[tuple[int, SweepPoint]]) -> dict[int, bytes]:
    """The exact DONE payload bytes a capture-less worker ships per point."""
    return {
        i: dump_result(loadgen_point(**dict(p.kwargs)), None) for i, p in points
    }


@dataclass(frozen=True)
class LoadSpec:
    """One load run: who misbehaves, how hard, for how long."""

    tenants: int = 3  # flood tenants
    grids_per_tenant: int = 5
    points_per_grid: int = 4
    submit_interval_s: float = 0.0  # open-loop arrival spacing per tenant
    grid_budget_s: float = 5.0  # retry-on-BUSY budget per grid
    slow_readers: int = 0
    half_open: int = 0
    duration_s: float = 30.0  # hard wall-clock cap on the whole run
    seed: int = 0
    op_timeout: float = 5.0
    capture: bool = False  # capture-less results are byte-predictable

    def as_dict(self) -> dict:
        return asdict(self)


class _Stats:
    """Thread-safe counters for one run."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.attempted = 0
        self.admitted = 0
        self.refused = 0
        self.fatal = 0
        self.refusal_reasons: dict[str, int] = {}
        self.retry_hints: list[float] = []
        self.admitted_grids: dict[str, str] = {}  # signature -> job name
        self.slow_reader_connects = 0
        self.slow_reader_disconnects = 0
        self.slow_reader_bytes = 0
        self.half_open_connects = 0
        self.half_open_closed = 0
        self.errors: list[str] = []


def _submit_once(
    host: str, port: int, blob: bytes, op_timeout: float
) -> tuple[str, Optional[dict]]:
    """One raw SUBMIT: ("admitted"|"busy"|"down", busy-doc)."""
    conn = None
    try:
        conn = MiniRedisConnection(host, port, timeout=op_timeout)
        conn.command("SUBMIT", blob)
        return "admitted", None
    except resp.ServerReplyError as exc:
        busy = parse_busy(str(exc))
        if busy is None:
            raise
        return "busy", busy
    except (TransportError, OSError):
        return "down", None
    finally:
        if conn is not None:
            conn.close()


def _flood_tenant(
    spec: LoadSpec,
    tenant: int,
    host: str,
    port: int,
    deadline: float,
    stats: _Stats,
) -> None:
    rng = np.random.default_rng(derive_seed(spec.seed, "loadgen-flood", tenant))
    for g in range(spec.grids_per_tenant):
        if time.monotonic() >= deadline:
            return
        points = tenant_grid(spec.seed, tenant, g, spec.points_per_grid)
        signature = grid_signature(points)
        name = f"flood-t{tenant}-g{g}"
        blob = dump_submission(
            name,
            points,
            tenant=f"tenant-{tenant}",
            capture=spec.capture,
        )
        grid_deadline = min(deadline, time.monotonic() + spec.grid_budget_s)
        while True:
            with stats.lock:
                stats.attempted += 1
            try:
                outcome, busy = _submit_once(host, port, blob, spec.op_timeout)
            except TransportError as exc:  # -ERR: a generator bug, record it
                with stats.lock:
                    stats.fatal += 1
                    stats.errors.append(str(exc))
                break
            if outcome == "admitted":
                with stats.lock:
                    stats.admitted += 1
                    stats.admitted_grids[signature] = name
                break
            if outcome == "busy":
                hint = busy.get("retry_after_s")
                reason = str(busy.get("reason", "busy"))
                with stats.lock:
                    stats.refused += 1
                    stats.refusal_reasons[reason] = (
                        stats.refusal_reasons.get(reason, 0) + 1
                    )
                    if hint is not None:
                        stats.retry_hints.append(float(hint))
                pause = (
                    float(hint)
                    if hint is not None
                    else 0.1 * (0.5 + float(rng.random()))
                )
            else:  # down: the service is restarting (the drill SIGKILLs it)
                pause = 0.2 * (0.5 + float(rng.random()))
            if time.monotonic() + pause >= grid_deadline:
                break
            time.sleep(pause)
        if spec.submit_interval_s > 0:
            time.sleep(spec.submit_interval_s)


def _slow_reader(
    spec: LoadSpec, index: int, host: str, port: int, deadline: float, stats: _Stats
) -> None:
    """Send STATUS forever, read nothing: the write-deadline's prey."""
    command = resp.encode_command("STATUS")
    try:
        sock = connect(host, port, spec.op_timeout)
    except OSError:
        return
    with stats.lock:
        stats.slow_reader_connects += 1
    sent = 0
    try:
        sock.settimeout(0.5)
        while time.monotonic() < deadline:
            try:
                sock.sendall(command)
                sent += len(command)
            except OSError:
                # The service cut us off (stalled write / idle deadline):
                # exactly the defense this client exists to trigger.
                with stats.lock:
                    stats.slow_reader_disconnects += 1
                return
            time.sleep(0.01)
    finally:
        with stats.lock:
            stats.slow_reader_bytes += sent
        try:
            sock.close()
        except OSError:
            pass


def _half_open(
    spec: LoadSpec, index: int, host: str, port: int, deadline: float, stats: _Stats
) -> None:
    """Connect, send a torn frame, go silent: the idle-deadline's prey."""
    try:
        sock = connect(host, port, spec.op_timeout)
    except OSError:
        return
    with stats.lock:
        stats.half_open_connects += 1
    try:
        sock.sendall(_TORN_FRAME)
        sock.settimeout(0.5)
        while time.monotonic() < deadline:
            try:
                data = sock.recv(4096)
            except socket.timeout:
                continue
            except OSError:
                break
            if not data:  # server closed on us: idle deadline fired
                with stats.lock:
                    stats.half_open_closed += 1
                return
    except OSError:
        with stats.lock:
            stats.half_open_closed += 1
    finally:
        try:
            sock.close()
        except OSError:
            pass


def run_load(address: str, spec: Optional[LoadSpec] = None) -> dict:
    """Run one load campaign against ``HOST:PORT``; returns JSON-able stats.

    Blocks until every flood tenant finished its grids (or the
    ``duration_s`` deadline passed) and the slow-reader/half-open
    threads wound down. Never raises on service overload or restarts —
    misbehavior tolerance is the point; only generator bugs surface.
    """
    spec = spec or LoadSpec()
    host, port = parse_hostport(address)
    stats = _Stats()
    deadline = time.monotonic() + spec.duration_s
    started = time.monotonic()
    threads: list[threading.Thread] = []
    for t in range(spec.tenants):
        threads.append(
            threading.Thread(
                target=_flood_tenant,
                args=(spec, t, host, port, deadline, stats),
                name=f"loadgen-flood-{t}",
                daemon=True,
            )
        )
    for i in range(spec.slow_readers):
        threads.append(
            threading.Thread(
                target=_slow_reader,
                args=(spec, i, host, port, deadline, stats),
                name=f"loadgen-slow-{i}",
                daemon=True,
            )
        )
    for i in range(spec.half_open):
        threads.append(
            threading.Thread(
                target=_half_open,
                args=(spec, i, host, port, deadline, stats),
                name=f"loadgen-halfopen-{i}",
                daemon=True,
            )
        )
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=spec.duration_s + spec.op_timeout + 5.0)
    hints = stats.retry_hints
    with stats.lock:
        return {
            "spec": spec.as_dict(),
            "elapsed_s": round(time.monotonic() - started, 3),
            "submits": {
                "attempted": stats.attempted,
                "admitted": stats.admitted,
                "refused": stats.refused,
                "fatal": stats.fatal,
            },
            "refusal_reasons": dict(sorted(stats.refusal_reasons.items())),
            "retry_hints": {
                "count": len(hints),
                "min": round(min(hints), 4) if hints else None,
                "max": round(max(hints), 4) if hints else None,
                "mean": round(sum(hints) / len(hints), 4) if hints else None,
            },
            "admitted_grids": dict(sorted(stats.admitted_grids.items())),
            "slow_readers": {
                "connects": stats.slow_reader_connects,
                "disconnects": stats.slow_reader_disconnects,
                "bytes_sent": stats.slow_reader_bytes,
            },
            "half_open": {
                "connects": stats.half_open_connects,
                "closed_by_server": stats.half_open_closed,
            },
            "errors": list(stats.errors),
        }


def main(argv: Optional[list[str]] = None) -> int:
    """``python -m repro.sweep.dist.loadgen HOST:PORT [...]``."""
    parser = argparse.ArgumentParser(
        prog="loadgen", description="seeded open-loop sweep-service load generator"
    )
    parser.add_argument("address", help="service HOST:PORT")
    parser.add_argument("--tenants", type=int, default=3)
    parser.add_argument("--grids", type=int, default=5)
    parser.add_argument("--points", type=int, default=4)
    parser.add_argument("--interval", type=float, default=0.0)
    parser.add_argument("--grid-budget", type=float, default=5.0)
    parser.add_argument("--slow-readers", type=int, default=0)
    parser.add_argument("--half-open", type=int, default=0)
    parser.add_argument("--duration", type=float, default=30.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--out", default=None, help="write stats JSON here (default: stdout)"
    )
    args = parser.parse_args(argv)
    spec = LoadSpec(
        tenants=args.tenants,
        grids_per_tenant=args.grids,
        points_per_grid=args.points,
        submit_interval_s=args.interval,
        grid_budget_s=args.grid_budget,
        slow_readers=args.slow_readers,
        half_open=args.half_open,
        duration_s=args.duration,
        seed=args.seed,
    )
    stats = run_load(args.address, spec)
    text = json.dumps(stats, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0 if not stats["errors"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised by the CI drill
    sys.exit(main())


__all__ = [
    "LoadSpec",
    "grid_expected",
    "loadgen_point",
    "main",
    "run_load",
    "tenant_grid",
]
