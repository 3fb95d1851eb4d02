"""Live fleet console: render a sweep service's STATUS as refreshing text.

``repro sweep --watch HOST:PORT`` attaches to a *running* service — a
``--serve`` sweep or a standalone ``--service``, local or remote — as a
read-only observer: it polls the ``STATUS`` command, renders a grid
progress bar, the per-worker rate table (from the ``rates`` section the
service computes with
:class:`~repro.sweep.dist.fleetmetrics.EwmaRate`), and the quarantine
list, then repaints in place with ANSI cursor control. It claims
nothing, renews nothing, and submits nothing — watching a sweep cannot
perturb it.

Rendering is a pure function of the status document
(:func:`render_status`), so tests exercise the exact strings without a
socket; :func:`watch` owns only the poll/clear/exit loop. It fetches
``STATUS`` and ``HEALTH`` through a one-attempt
:class:`~repro.sweep.dist.service.ServiceClient` (the one client of the
service) and keeps its own seeded reconnect loop, which paints the
``RECONNECTING`` banner between attempts.
"""

from __future__ import annotations

import random
import sys
import time
from typing import Callable, Optional, TextIO

from repro.errors import SweepError, TransportError
from repro.sweep.dist.service import ServiceClient
from repro.sweep.point import derive_seed
from repro.transport.resp import ServerReplyError

#: Progress-bar width in cells.
BAR_WIDTH = 30

#: Default cumulative reconnect allowance after losing a service we
#: had reached (seconds of *requested* sleep, so injected test clocks
#: still exhaust it deterministically).
RECONNECT_BUDGET = 30.0

#: Socket timeout of each STATUS/HEALTH exchange.
OP_TIMEOUT = 5.0

#: ANSI: move the cursor home and wipe the rest of the screen.
_CLEAR = "\x1b[H\x1b[J"


def progress_bar(done: int, total: int, width: int = BAR_WIDTH) -> str:
    """``[#####....] done/total`` with a guaranteed-bounded fill."""
    total = max(total, 1)
    filled = min(width, max(0, round(width * done / total)))
    return f"[{'#' * filled}{'.' * (width - filled)}] {done}/{total}"


def _fmt_rate(entry: dict) -> str:
    rate = float(entry.get("points_per_second") or 0.0)
    return f"{rate:7.2f}/s"


def _fmt_age(entry: dict) -> str:
    age = entry.get("lease_age_seconds")
    return "idle" if age is None else f"{float(age):5.1f}s"


def drained(status: dict) -> bool:
    """True when every point reached a terminal state (done/poisoned)."""
    counts = status.get("counts", {})
    total = int(status.get("n_points", 0))
    terminal = int(counts.get("done", 0)) + int(counts.get("poisoned", 0))
    return total > 0 and terminal >= total


def render_health(health: dict) -> list[str]:
    """Banner lines for a HEALTH document; empty when all is well."""
    state = str(health.get("state", "ready"))
    admission = health.get("admission", {})
    queues = health.get("queues", {})
    lines: list[str] = []
    if state != "ready":
        cause = admission.get("brownout_cause")
        detail = f" ({cause})" if cause else ""
        lines.append(
            f"  !! service {state.upper()}{detail} — new submissions refused, "
            "claims/acks still served"
        )
    refusals = int(admission.get("busy_refusals", 0))
    shed = int(queues.get("shed_commands", 0))
    if refusals or shed:
        lines.append(
            f"  overload: {refusals} busy refusals, {shed} shed commands, "
            f"{queues.get('refused_connections', 0)} refused connections, "
            f"backlog {queues.get('dispatch_waiting', 0)}"
            f"/{queues.get('dispatch_limit', '-')}"
        )
    return lines


def render_status(status: dict, health: Optional[dict] = None) -> str:
    """Pure text rendering of one STATUS document (no ANSI codes).

    With a HEALTH document the overload banner (brownout state, refusal
    and shed counters) is prepended — absent or healthy, the rendering
    is byte-identical to the status-only form.
    """
    counts = status.get("counts", {})
    total = int(status.get("n_points", 0))
    done = int(counts.get("done", 0))
    lines = (render_health(health) if health else []) + [
        f"sweep {str(status.get('grid', '?'))[:16]}  "
        f"{progress_bar(done, total)}",
        (
            f"  queued {counts.get('queued', 0)}  "
            f"leased {counts.get('leased', 0)}  "
            f"poisoned {counts.get('poisoned', 0)}  |  "
            f"executed {status.get('executed', 0)}  "
            f"replayed {status.get('replayed', 0)}  "
            f"reclaims {status.get('reclaims', 0)}  "
            f"requeues {status.get('requeues', 0)}"
        ),
    ]
    workers = status.get("workers", {})
    rates = status.get("rates", {})
    if workers:
        lines.append("")
        lines.append(
            f"  {'worker':<28} {'claimed':>7} {'done':>5} {'failed':>6}"
            f" {'rate':>9} {'lease':>7}"
        )
        for worker in sorted(workers):
            entry = workers[worker]
            rate_entry = rates.get(worker, {})
            lines.append(
                f"  {worker:<28} {entry.get('claimed', 0):>7}"
                f" {entry.get('completed', 0):>5} {entry.get('failed', 0):>6}"
                f" {_fmt_rate(rate_entry):>9} {_fmt_age(rate_entry):>7}"
            )
    poisoned = status.get("poisoned_points", [])
    if poisoned:
        lines.append("")
        lines.append("  quarantined points: " + ", ".join(str(i) for i in poisoned))
    if drained(status):
        lines.append("")
        lines.append("  grid drained.")
    return "\n".join(lines)


def _health_document(client: ServiceClient) -> Optional[dict]:
    """HEALTH through ``client``; None when the reply is not a document."""
    try:
        return client.health()
    except SweepError:
        return None


def watch(
    address: str,
    interval: float = 1.0,
    stream: Optional[TextIO] = None,
    max_refreshes: Optional[int] = None,
    fetch: Optional[Callable[[str], dict]] = None,
    health_probe: Optional[Callable[[str], Optional[dict]]] = None,
    sleep: Callable[[float], None] = time.sleep,
    reconnect_budget: float = RECONNECT_BUDGET,
    seed: int = 0,
) -> int:
    """Poll-and-repaint until the grid drains; returns an exit code.

    ``fetch``/``health_probe`` default to STATUS/HEALTH through one
    one-attempt :class:`ServiceClient`; tests inject their own.

    Losing a service we had reached starts a seeded-backoff
    reconnect loop bounded by ``reconnect_budget`` cumulative seconds —
    a service restarting against the same store comes back mid-budget
    and the console re-attaches where it left off. The budget is
    accounted in *requested* sleep seconds, not wall time, so an
    injected no-op ``sleep`` exhausts it all the same.

    The overload banner comes from HEALTH, best-effort: a failed probe
    skips the banner for that refresh only, while an ``-ERR`` reply (a
    peer that does not know HEALTH) or a reply that is not a document
    turns it off for the session.

    Exit 0 when the watched grid drained, or when a service we had
    reached stays gone past the budget — a ``--serve`` sweep only
    exits once its grid resolves (drain, poison, or stop), and the poll
    usually misses the sub-second window between the last completion
    and the process exiting, so "gone after contact" is the *normal*
    end of a watched run, not a failure. Exit 1 only when the
    address was never reachable at all.
    """
    if interval <= 0:
        raise SweepError(f"watch interval must be positive, got {interval}")
    if reconnect_budget < 0:
        raise SweepError(
            f"reconnect budget must be >= 0, got {reconnect_budget}"
        )
    out = stream if stream is not None else sys.stdout
    use_ansi = stream is None and sys.stdout.isatty()
    rng = random.Random(derive_seed(seed, "watch-reconnect", address))
    refreshes = 0
    last: Optional[dict] = None
    budget_left = reconnect_budget
    attempt = 0
    health_supported = True
    client = ServiceClient(address, op_timeout=OP_TIMEOUT, reconnect_budget=0.0)
    fetch = fetch or (lambda _: client.status())
    health_probe = health_probe or (lambda _: _health_document(client))
    try:
        while max_refreshes is None or refreshes < max_refreshes:
            try:
                status = fetch(address)
            except (TransportError, OSError):
                if last is None:
                    print(f"coordinator at {address} is unreachable", file=out)
                    return 1
                if budget_left <= 0:
                    if not drained(last):
                        counts = last.get("counts", {})
                        print(
                            f"coordinator at {address} closed "
                            f"({counts.get('done', 0)}/{last.get('n_points', 0)} "
                            "done at last poll)",
                            file=out,
                        )
                    return 0
                delay = min(interval * 2 ** min(attempt, 4), 10.0)
                delay = max(0.05, delay * (0.5 + rng.random()))
                delay = min(delay, budget_left)
                print(
                    f"RECONNECTING to {address} "
                    f"({budget_left:.1f}s left in budget)",
                    file=out,
                )
                out.flush()
                sleep(delay)
                budget_left -= delay
                attempt += 1
                continue
            health = None
            if health_supported:
                try:
                    health = health_probe(address)
                    health_supported = health is not None
                except ServerReplyError:
                    health_supported = False  # the peer does not know HEALTH
                except (TransportError, OSError):
                    pass  # no banner this refresh; STATUS drives reconnects
            if attempt:
                print(f"reconnected to {address}", file=out)
            budget_left = reconnect_budget
            attempt = 0
            refreshes += 1
            if use_ansi:
                out.write(_CLEAR)
            print(render_status(status, health), file=out)
            out.flush()
            last = status
            if drained(status):
                return 0
            sleep(interval)
        return 0
    finally:
        client.close()


__all__ = [
    "BAR_WIDTH",
    "RECONNECT_BUDGET",
    "drained",
    "progress_bar",
    "render_health",
    "render_status",
    "watch",
]
