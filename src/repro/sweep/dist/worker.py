"""WorkerAgent: claims, executes, and reports sweep points over TCP.

The agent is deliberately stateless about the grid: it claims one
assignment at a time, executes it once with the sweep engine's own point
runner, streams back the pickled (value, telemetry snapshot) result or a
``FAIL`` that the service requeues or quarantines, and claims again. It
reaches the service only through two
:class:`~repro.sweep.dist.service.ServiceClient` instances, which own
every connect, reconnect, backoff and ``-BUSY`` wait:

* the **patient** client (budget ``reconnect_budget``) carries HELLO,
  CLAIM, DONE and FAIL. It replays HELLO on every connection it opens
  and rides out a coordinator restart or the gap between two grids of
  a multi-stage sweep; the agent gives up only when a command cannot
  reach the coordinator within the budget;
* the **one-attempt** client (budget 0) carries the heartbeat's RENEW
  and the main loop's SPANS, so neither can burn the reconnect budget
  or stall the claim loop. The two threads take turns on it: the
  heartbeat while a point runs, the main loop after it is joined.

Everything that makes the system fault-tolerant lives in how the agent
fails:

* **heartbeats** — a background thread renews the current lease every
  third of ``lease_seconds``; if the agent dies (SIGKILL, OOM),
  renewals stop and the coordinator reclaims the point;
* **result durability** — a ``DUPLICATE`` ack (someone stole and
  finished the point while we were partitioned) is a success, not an
  error. Every submission names its grid signature, and the service
  acks a result for a grid it no longer holds ``STALE`` instead of
  recording it into the wrong grid. A ``-BUSY`` means the service is
  alive: the agent waits ``poll`` and resends (DONE is idempotent). An
  ``-ERR`` rejection discards the point and the agent claims again;
  only a refused HELLO is fatal;
* **graceful drain** — SIGTERM (routed to :meth:`request_drain` by
  :func:`run_worker_process`) finishes and reports the in-flight point,
  then exits the claim loop; it also ends any reconnect wait at once.

Observability (passive, never on the failure-handling path):

* every executed point becomes a wall-clock **fleet span** carrying the
  assignment's ``trace_id``/``span_id``; finished spans ship back on
  ``SPANS`` through the one-attempt client, and a batch that fails is
  dropped and counted;
* a **flight recorder** rings recent protocol events and dumps a
  postmortem JSON on crash, drain, or exit when a dump path is set;
* **structured logs** (``repro.sweep.worker``) narrate claims, results,
  and the end of the run when logging is configured.
"""

from __future__ import annotations

import itertools
import json
import os
import socket
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Optional

from repro.errors import (
    BackendUnavailableError,
    HelloRefusedError,
    ServiceBusyError,
    SweepError,
    TransportError,
)
from repro.sweep.dist.protocol import (
    DRAINED,
    STALE,
    Assignment,
    FailureRecord,
    dump_spans,
)
from repro.sweep.dist.service import ServiceClient, sigterm_calls
from repro.sweep.point import derive_seed
from repro.telemetry.flight import FlightRecorder, maybe_dump
from repro.telemetry.log import get_logger
from repro.transport.resp import ServerReplyError
from repro.version import __version__

_AGENT_COUNTER = itertools.count()

#: Lease renewals happen every ``lease_seconds * HEARTBEAT_FRACTION``.
HEARTBEAT_FRACTION = 1.0 / 3.0

_log = get_logger("sweep.worker")


@dataclass
class WorkerOptions:
    """How one agent reaches the coordinator and paces itself."""

    #: Seconds a command may keep retrying an unreachable coordinator
    #: before the agent gives up.
    reconnect_budget: float = 30.0
    #: Idle wait between claims when the queue is empty or drained.
    poll: float = 0.25
    #: Stop after completing/failing this many points (tests, canaries).
    max_points: Optional[int] = None
    #: Root seed for backoff jitter (derived per worker id).
    seed: int = 0
    #: Request-scoped socket timeout for every RESP exchange. A
    #: coordinator that accepts the connection but never answers (a
    #: one-way partition, a trickling chaos proxy) converts into a
    #: retryable :class:`~repro.errors.BackendUnavailableError` at this
    #: deadline instead of hanging the claim loop forever.
    op_timeout: float = 30.0
    #: Where :func:`run_worker_process` dumps the flight recorder
    #: (postmortem on crash, drain record on SIGTERM, always on exit
    #: when set). None disables dumping; the ring still records.
    flight_path: Optional[str] = None

    def __post_init__(self) -> None:
        if self.reconnect_budget <= 0:
            raise SweepError("reconnect_budget must be positive")
        if self.poll <= 0:
            raise SweepError("poll must be positive")
        if self.op_timeout <= 0:
            raise SweepError("op_timeout must be positive")


@dataclass
class WorkerReport:
    """What one agent did before exiting its claim loop."""

    worker_id: str = ""
    completed: int = 0
    failed: int = 0
    duplicates: int = 0  # results the coordinator had already (stolen points)
    reconnects: int = 0
    renews: int = 0
    lease_losses: int = 0  # renewals answered "lease lost" mid-execution
    stale_grid: int = 0  # results acked STALE: the service no longer holds the grid
    rejected: int = 0  # submissions/claims the coordinator answered -ERR
    busy: int = 0  # -BUSY shed/overload replies absorbed (paced retries)
    spans_shipped: int = 0  # fleet spans the coordinator accepted
    spans_dropped: int = 0  # fleet spans lost to fire-and-forget shipping
    drained: bool = False  # exited via SIGTERM / request_drain
    gave_up: bool = False  # reconnect budget exhausted

    def summary(self) -> str:
        parts = [
            f"{self.completed} completed",
            f"{self.failed} failed",
            f"{self.reconnects} reconnects",
        ]
        if self.duplicates:
            parts.append(f"{self.duplicates} duplicates")
        if self.lease_losses:
            parts.append(f"{self.lease_losses} lease losses")
        if self.stale_grid:
            parts.append(f"{self.stale_grid} stale-grid drops")
        if self.rejected:
            parts.append(f"{self.rejected} rejected")
        if self.busy:
            parts.append(f"{self.busy} busy")
        how = "drained" if self.drained else ("gave up" if self.gave_up else "done")
        return f"worker {self.worker_id}: " + ", ".join(parts) + f" ({how})"


class WorkerAgent:
    """One claim-execute-report loop against one coordinator address.

    Thread-safety: the run loop owns the agent, with two narrow
    exceptions — the heartbeat thread uses the one-attempt client while
    a point executes (and only bumps the ``renews``/``lease_losses``
    counters), and :meth:`request_drain` is async-signal-safe (it only
    sets an event; all I/O and locking happens on the run loop).

    Durability: none here by design — the coordinator/service owns the
    durable record and a worker is disposable. SIGKILLing a worker
    costs at most one lease interval: the point is reclaimed at expiry
    and stolen by the next claim, and a stale completion arriving later
    is absorbed as an idempotent duplicate.
    """

    def __init__(
        self,
        address: str,
        options: Optional[WorkerOptions] = None,
        worker_id: Optional[str] = None,
    ) -> None:
        self.options = options or WorkerOptions()
        self.worker_id = worker_id or (
            f"{socket.gethostname()}:{os.getpid()}:{next(_AGENT_COUNTER)}"
        )
        self.report = WorkerReport(worker_id=self.worker_id)
        self._drain = threading.Event()
        hello = (
            self.worker_id,
            json.dumps(
                {
                    "version": __version__,
                    "host": socket.gethostname(),
                    "pid": os.getpid(),
                    "python": sys.version.split()[0],
                }
            ),
        )
        self._client = ServiceClient(
            address,
            op_timeout=self.options.op_timeout,
            reconnect_budget=self.options.reconnect_budget,
            seed=derive_seed(self.options.seed, "dist-worker", self.worker_id),
            hello=hello,
            stop=self._drain,
        )
        self._oneshot = ServiceClient(
            address,
            op_timeout=self.options.op_timeout,
            reconnect_budget=0.0,
            hello=hello,
        )
        self.flight = FlightRecorder(component=f"worker:{self.worker_id}")
        self._spans: list[dict] = []  # finished fleet spans awaiting SPANS

    # -- lifecycle ----------------------------------------------------------
    def request_drain(self) -> None:
        """Finish the in-flight point (if any), then exit the claim loop.

        Runs from the SIGTERM handler, so it only sets the event — no
        locks (the flight recorder's, a log handler's) may be taken here
        or a signal landing mid-``record`` would self-deadlock. The run
        loop notices the flag and writes the drain records itself.
        """
        self._drain.set()

    # -- execution ----------------------------------------------------------
    def _execute(self, assignment: Assignment):
        """Run the point once; returns (value, snapshot, failure)."""
        from repro.sweep.engine import _execute_point  # late: engine imports dist lazily

        try:
            value, snapshot = _execute_point(assignment.point, assignment.capture)
        except Exception as exc:
            failure = FailureRecord(
                worker=self.worker_id,
                error=f"{type(exc).__name__}: {exc}",
                traceback=traceback.format_exc(),
            )
            return None, None, failure
        return value, snapshot, None

    def _heartbeat(self, assignment: Assignment, stop: threading.Event) -> None:
        interval = max(assignment.lease_seconds * HEARTBEAT_FRACTION, 0.05)
        while not stop.wait(interval):
            try:
                # v4 arity: name the grid — under a multi-tenant service
                # an index alone does not identify a lease.
                held = self._oneshot.command(
                    "RENEW", self.worker_id, str(assignment.index), assignment.grid
                )
            except TransportError:
                continue  # one attempt per beat; the next beat reconnects
            self.report.renews += 1
            if not held:
                # The lease expired and may be running elsewhere too; we
                # still finish and submit — the coordinator deduplicates.
                self.report.lease_losses += 1

    def _submit(
        self, command: str, assignment: Assignment, payload: bytes | str
    ) -> Optional[str]:
        """Send DONE/FAIL until acked; None = discarded (or gave up)."""
        while True:
            try:
                reply = self._client.command(
                    command,
                    self.worker_id,
                    str(assignment.index),
                    assignment.grid,
                    payload,
                )
            except ServiceBusyError:
                # Overload, not a rejection: never discard a finished
                # result over transient pressure (not even when draining).
                time.sleep(self.options.poll)
                continue
            except BackendUnavailableError:
                self.report.gave_up = not self._drain.is_set()
                return None
            except ServerReplyError:
                # An -ERR reply (unknown index, draining coordinator,
                # malformed payload): the submission was *rejected*, not
                # lost. Discard the point and go claim again.
                self.report.rejected += 1
                return None
            reply = str(reply)
            if reply == STALE:
                # The service no longer holds this grid (cancelled or
                # collected): the result is discarded, not lost.
                self.report.stale_grid += 1
            return reply

    def _record_span(
        self, assignment: Assignment, start: float, end: float, outcome: str
    ) -> None:
        """Queue one finished execution span for the next SPANS flush."""
        self._spans.append(
            {
                "name": f"p{assignment.index}",
                "category": "point",
                "start": start,
                "end": end,
                "tid": 0,
                "args": {
                    "index": assignment.index,
                    "worker": self.worker_id,
                    "outcome": outcome,
                    "trace_id": assignment.trace_id,
                    "span_id": assignment.span_id,
                },
            }
        )

    def _flush_spans(self) -> None:
        """Ship queued fleet spans through the one-attempt client.

        Observability is expendable: a failed attempt or an ``-ERR``
        reply drops the batch (counted in ``spans_dropped``) rather than
        burning the reconnect budget.
        """
        if not self._spans:
            return
        batch, self._spans = self._spans, []
        try:
            accepted = self._oneshot.command("SPANS", self.worker_id, dump_spans(batch))
        except TransportError:
            self.report.spans_dropped += len(batch)
            return
        self.report.spans_shipped += int(accepted or 0)

    def _process(self, assignment: Assignment) -> None:
        from repro.sweep.dist.protocol import dump_result

        self.flight.record(
            "claim", index=assignment.index, span_id=assignment.span_id
        )
        _log.debug(
            "claim",
            worker=self.worker_id,
            index=assignment.index,
            trace_id=assignment.trace_id,
            span_id=assignment.span_id,
        )
        stop = threading.Event()
        heartbeat = threading.Thread(
            target=self._heartbeat,
            args=(assignment, stop),
            name=f"heartbeat-{self.worker_id}",
            daemon=True,
        )
        heartbeat.start()
        started = time.time()  # wall clock: fleet spans merge across hosts
        try:
            value, snapshot, failure = self._execute(assignment)
        finally:
            stop.set()
            heartbeat.join(timeout=2.0)
        outcome = "done" if failure is None else "fail"
        self._record_span(assignment, started, time.time(), outcome)
        self.flight.record(outcome, index=assignment.index)
        if failure is None:
            reply = self._submit(
                "DONE", assignment, dump_result(value, snapshot)
            )
            if reply in ("OK", "DUPLICATE"):
                self.report.completed += 1
                if reply == "DUPLICATE":
                    self.report.duplicates += 1
            _log.info(
                "point.done",
                worker=self.worker_id,
                index=assignment.index,
                ack=str(reply),
            )
            self._flush_spans()
        else:
            self._submit(
                "FAIL", assignment, json.dumps(failure.as_dict())
            )
            self.report.failed += 1
            _log.warning(
                "point.fail",
                worker=self.worker_id,
                index=assignment.index,
                error=failure.error,
            )
            self._flush_spans()
            # Back off before claiming again: the re-queued point should
            # go to a *different* worker if one is polling (the poison
            # verdict needs distinct workers), not back to this one in
            # the same breath.
            self._drain.wait(self.options.poll)

    # -- main loop -----------------------------------------------------------
    def _budget_spent(self) -> bool:
        limit = self.options.max_points
        return limit is not None and (self.report.completed + self.report.failed) >= limit

    def run(self) -> WorkerReport:
        """Claim and execute until drained, budget-spent, or cut off."""
        try:
            while not (
                self._drain.is_set() or self.report.gave_up or self._budget_spent()
            ):
                try:
                    reply = self._client.command("CLAIM", self.worker_id)
                except ServiceBusyError:
                    # Overload shed: the service is alive, so pace and
                    # claim again rather than give up over it.
                    self._drain.wait(self.options.poll)
                    continue
                except BackendUnavailableError:
                    # The budget ran out, or a drain cut a wait short;
                    # only the former is giving up.
                    self.report.gave_up = not self._drain.is_set()
                    break
                except ServerReplyError:
                    # The coordinator refused the claim: a fresh
                    # connection (and HELLO) re-validates us.
                    self.report.rejected += 1
                    self._client.close()
                    self._drain.wait(self.options.poll)
                    continue
                if reply is None or reply == DRAINED:
                    # Nothing claimable now; a DRAINED grid may be
                    # followed by another on the same address shortly.
                    self._drain.wait(self.options.poll)
                    continue
                self._process(Assignment.from_bytes(reply))
        finally:
            self._flush_spans()  # last chance before the sockets go away
            self._client.close()
            self._oneshot.close()
            self.report.reconnects = self._client.reconnects
            self.report.busy = self._client.busy_refusals
        self.report.drained = self._drain.is_set()
        if self.report.drained:
            self.flight.record("drained", completed=self.report.completed)
            _log.info("drained", worker=self.worker_id, completed=self.report.completed)
        elif self.report.gave_up:
            self.flight.record("gave_up", completed=self.report.completed)
            _log.error("gave_up", worker=self.worker_id, completed=self.report.completed)
        return self.report


def run_worker_process(
    address: str,
    seed: int = 0,
    reconnect_budget: float = 30.0,
    poll: float = 0.25,
    max_points: Optional[int] = None,
    quiet: bool = False,
    flight_path: Optional[str] = None,
    op_timeout: float = 30.0,
) -> int:
    """Entry point for a dedicated worker process (CLI ``--connect``).

    Routes SIGTERM to a graceful drain while one agent runs to completion
    (the previous handler comes back afterwards), and prints its report
    to stderr. Returns a process exit code: 0 for a clean exit
    (including a SIGTERM drain), nonzero when the agent
    gave up (reconnect budget exhausted with the grid unfinished),
    failed every point it touched, or was refused at the handshake —
    so fleet managers taking ``max(exitcode)`` can tell a failed fleet
    from a successful drain.
    """
    options = WorkerOptions(
        reconnect_budget=reconnect_budget,
        poll=poll,
        max_points=max_points,
        seed=seed,
        flight_path=flight_path,
        op_timeout=op_timeout,
    )
    agent = WorkerAgent(address, options)
    try:
        with sigterm_calls(agent.request_drain):
            report = agent.run()
    except HelloRefusedError as exc:
        # Misjoining this fleet would silently compute a different grid.
        maybe_dump(agent.flight, options.flight_path, "fatal")
        print(f"worker {agent.worker_id}: fatal: {exc}", file=sys.stderr)
        return 1
    except BaseException:
        maybe_dump(agent.flight, options.flight_path, "crash")
        raise
    reason = "drain" if report.drained else "gave_up" if report.gave_up else "completed"
    maybe_dump(agent.flight, options.flight_path, reason)
    if not quiet:
        print(report.summary(), file=sys.stderr)
    if report.gave_up or (report.failed and not report.completed):
        return 1
    return 0


def worker_process_main(**kwargs) -> None:
    """Multiprocessing entry: turn the return value into the exit code.

    ``multiprocessing.Process`` ignores its target's return value, so a
    fleet manager taking ``max(proc.exitcode)`` would read every worker
    as 0 without this shim (module-level so spawn contexts can pickle it).
    """
    sys.exit(run_worker_process(**kwargs))


__all__ = [
    "WorkerAgent",
    "WorkerOptions",
    "WorkerReport",
    "run_worker_process",
    "worker_process_main",
]
