"""Wire protocol of the distributed sweep: RESP commands + payloads.

The serving side (:class:`~repro.sweep.dist.service.SweepService`, the
"coordinator" below) is a :class:`~repro.transport.server.RespTcpServer`
subclass, so every exchange is a RESP command array from the worker and
a single RESP reply from the coordinator — the same substrate (and the
same :class:`~repro.transport.redis_backend.MiniRedisConnection` client
framing) as the mini-Redis backend. The full vocabulary:

=========  =============================================  =======================
command    arguments                                      reply
=========  =============================================  =======================
PING       —                                              ``+PONG``
HELLO      worker_id, capabilities-JSON                   bulk JSON grid info
CLAIM      worker_id                                      bulk assignment pickle,
                                                          null (nothing claimable
                                                          right now), or
                                                          ``+DRAINED``
RENEW      worker_id, index, grid                         ``:1`` (lease held) /
                                                          ``:0`` (lease lost)
DONE       worker_id, index, grid, result pickle          ``+OK`` / ``+DUPLICATE``
                                                          / ``+STALE``
FAIL       worker_id, index, grid, failure-JSON           ``+REQUEUED`` /
                                                          ``+POISONED`` /
                                                          ``+DUPLICATE`` /
                                                          ``+STALE``
STATUS     [grid]                                         bulk JSON state counts
                                                          + per-worker ``rates``
METRICS    —                                              bulk Prometheus-style
                                                          text exposition
SPANS      worker_id, spans-JSON                          ``:n`` (spans accepted)
=========  =============================================  =======================

The multi-tenant **sweep service** (:mod:`repro.sweep.dist.service`)
speaks the same vocabulary towards workers (so :class:`WorkerAgent` is
oblivious to which it joined) plus tenant lifecycle commands:

=========  =============================================  =======================
command    arguments                                      reply
=========  =============================================  =======================
SUBMIT     submission pickle                              bulk JSON {grid,
                                                          created, state, ...}
JOBS       —                                              bulk JSON job rows
CANCEL     grid                                           ``+CANCELLED`` /
                                                          ``+TERMINAL`` (already
                                                          done/poisoned)
RESULTS    grid                                           bulk results pickle
                                                          ({index: payload}
                                                          + job state)
QUERY      [spec-JSON]                                    bulk JSON result rows
                                                          (+ divergence report)
USAGE      [spec-JSON]                                    bulk JSON per-tenant
                                                          per-day accounting
GC         [policy-JSON]                                  bulk JSON retention
                                                          report (planned /
                                                          collected / refused)
HEALTH     —                                              bulk JSON readiness
                                                          document (store /
                                                          queues / quotas /
                                                          brownout state)
=========  =============================================  =======================

Any command may additionally be answered with a typed ``-BUSY`` error
line carrying a JSON refusal document (see :func:`dump_busy` /
:func:`parse_busy`): the request was *valid* but the service is shedding
load — tenant quota exhausted, dispatch queue full, or brownout. The
document's ``retry_after_s`` is a seeded-jittered pacing hint clients
honor instead of their own fixed backoff.

Wire-format history (``WIRE_FORMAT`` gates the pickled payload shape;
HELLO's version check keeps mixed fleets out entirely):

* **v1** — PING/HELLO/CLAIM/RENEW/DONE/FAIL/STATUS, results keyed by
  point index alone.
* **v2** — **grid-signature binding**: ``DONE``/``FAIL`` carry the grid
  signature of the assignment they answer. A coordinator on the same
  HOST:PORT may be serving a different grid by the time a slow worker
  reports back (multi-stage sweeps reuse the address; the worker's
  reconnect budget is designed to ride out the gap between grids), and
  point indices always collide because every grid is 0-based — the
  signature is what keeps grid A's value out of grid B's results. A
  mismatched submission is acknowledged with ``+STALE`` and discarded.
* **v3** — **observability**: assignments carry a trace context
  (``trace_id`` identifying the sweep, ``span_id`` identifying this
  lease) so worker-side spans parent correctly in the merged fleet
  trace; the ``SPANS`` command ships those finished spans back (JSON
  list of ``{name, category, start, end, tid, args}`` with wall-clock
  seconds — the coordinator files them under a pid track named from the
  worker's HELLO ``hostname:pid`` identity); ``METRICS`` returns a
  Prometheus-style text scrape of grid state and per-worker rates.
  ``SPANS`` is fire-and-forget best effort: a worker never retries it
  across reconnects and the coordinator never fails a grid over it —
  observability must observe, never perturb.
* **v4** — **multi-tenancy**: the sweep service accepts many named
  grids concurrently (``SUBMIT``/``JOBS``/``CANCEL``/``RESULTS``), so
  the single-grid assumptions of v3 are loosened in three places.
  (1) HELLO from a service advertises :data:`MULTI_GRID` (``"*"``)
  instead of one signature: "any grid I claim here is current" (each
  *assignment* still carries its own signature, and DONE/FAIL still
  echo it, so results route to the right job; a DONE for a grid the
  service no longer holds is acked ``+STALE``). (2) ``RENEW`` grows a
  third ``grid`` argument: under one grid an index identifies a lease,
  under many it does not, so the two-argument form is now a
  wrong-arity error. HELLO's version gate keeps v3 workers out. (3)
  ``STATUS`` accepts an optional grid argument; without one a service
  answers an *aggregate* document over every live job (what
  ``--watch`` and ``METRICS`` render). Submission is
  idempotent by grid content signature, results are persisted in an
  SQLite store before acknowledgement, and a SIGKILLed service
  restarted on the same store drains every in-flight job to
  byte-identical results (see ``repro.sweep.dist.store``).
* **v5** — **read commands over the durable store**: ``QUERY`` (all
  recorded results for a point-fingerprint/job-name/tenant filter,
  across jobs and code versions, with optional version-divergence
  detection), ``USAGE`` (per-tenant per-day accounting aggregated from
  the event audit trail), and ``GC`` (the
  retention/policy engine: age- and count-based collection of terminal
  jobs, dry-run planning, tombstoned grids still short-circuit
  re-submission). All three take one optional JSON argument and answer
  bulk JSON; on the service they are answered from a *read-only
  connection pool* beside the store's one locked read-write
  connection (GC's deletions alone go through the store), so heavy
  queries never sit between a worker's DONE and its fsync — see ``repro.sweep.dist.query``. The
  store schema moves to v2 (indexed per-point fingerprints, tombstone
  rows, usage views; v1 stores migrate in place on open). The *result*
  payload shape is unchanged — ``load_result`` accepts persisted v4
  payloads so pre-v5 stores keep replaying byte-identical results —
  while live-wire payloads (assignments, submissions) require v5
  exactly, as before.
* **v6** — **overload protection**: admission control and graceful
  degradation become part of the wire contract. ``SUBMIT`` may be
  refused with a typed ``-BUSY`` line (per-tenant quota exhausted, or
  the service is in declared *brownout*: new work refused, CLAIM/DONE
  still served so the backlog drains); so may read commands shed from a
  full dispatch queue — durability acks (``DONE``/``FAIL``) are never
  shed. The refusal payload is JSON (``reason``, ``retry_after_s``,
  quota context) and the hint is seeded-jittered server-side so a
  refused fleet does not retry in lockstep. ``HEALTH`` answers a
  readiness document (store writability and write latency, reader-pool
  liveness, queue depths and shed counters, per-tenant quota headroom,
  brownout state) off the lock-free fast path, so the probe stays
  responsive under exactly the overload it exists to report. Result
  payloads from v4/v5 stores keep decoding byte-identical, as before.

Assignments and results are pickled: workers are trusted peers running
the *same* ``repro`` version against the same grid (HELLO rejects a
version mismatch, because cache keys and point fingerprints embed the
version). This is a cluster-internal tool, not an internet-facing one —
never expose the coordinator port to untrusted networks.
"""

from __future__ import annotations

import json
import pickle
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence

from repro.errors import SweepError
from repro.sweep.cache import grid_fingerprint_of, point_key
from repro.sweep.point import SweepPoint

#: Bumped when the assignment/result wire shape changes.
WIRE_FORMAT = "repro-dist-sweep-v6"

#: Result-payload formats :func:`load_result` accepts. Result payloads
#: outlive connections — the store persists the exact bytes a worker
#: shipped, and replaying them byte-identical across restarts (and now
#: across *code upgrades*) is the service's core promise. The v4 result
#: shape is unchanged through v6, so payloads recorded by pre-v6 stores
#: must keep decoding; live-wire payloads (assignments, submissions)
#: stay strictly current-format because nothing persists them.
_RESULT_FORMATS = frozenset(
    {"repro-dist-sweep-v4", "repro-dist-sweep-v5", WIRE_FORMAT}
)

#: Marker word of a typed overload refusal; the RESP line is
#: ``-BUSY <json>`` and clients see a message starting with this word.
BUSY = "BUSY"

#: CLAIM reply meaning "every point is done or poisoned; nothing left".
DRAINED = "DRAINED"

#: DONE/FAIL ack meaning "your submission belongs to a different grid".
STALE = "STALE"

#: HELLO ``grid`` value advertised by the multi-tenant service: "no one
#: grid is current here".
MULTI_GRID = "*"

#: CANCEL ack meaning "the job was already done or poisoned" (terminal
#: states are immutable; their results stay queryable).
TERMINAL = "TERMINAL"

#: CANCEL ack meaning "the job is cancelled; its leases are revoked".
CANCELLED = "CANCELLED"


def dump_busy(
    reason: str, retry_after_s: Optional[float] = None, **extra: Any
) -> str:
    """The text after ``-BUSY``: a sorted-key JSON refusal document.

    ``reason`` is a stable machine-readable slug (``tenant-live-jobs``,
    ``tenant-queued-points``, ``tenant-store-bytes``, ``brownout``,
    ``draining``, ``dispatch-queue``); ``retry_after_s`` is the server's
    seeded-jittered pacing hint. Extra keys carry quota context (limit,
    usage) for operators reading a ``-BUSY`` storm out of client logs.
    """
    doc: dict[str, Any] = {"reason": str(reason)}
    if retry_after_s is not None:
        doc["retry_after_s"] = round(float(retry_after_s), 4)
    doc.update(extra)
    return json.dumps(doc, sort_keys=True)


def parse_busy(message: str) -> Optional[dict]:
    """Decode a client-side error message into its BUSY document.

    Returns None when the message is not a ``-BUSY`` refusal at all (an
    ordinary ``-ERR``); a dict (possibly just ``{"reason": "busy"}`` for
    a bare/unparseable BUSY line) otherwise — so callers can use the
    None/dict split as the retryable/fatal classification.
    """
    text = str(message)
    if text != BUSY and not text.startswith(BUSY + " "):
        return None
    rest = text[len(BUSY):].strip()
    if rest:
        try:
            doc = json.loads(rest)
            if isinstance(doc, dict):
                doc.setdefault("reason", "busy")
                return doc
        except ValueError:
            pass
        return {"reason": "busy", "detail": rest}
    return {"reason": "busy"}


def parse_hostport(text: str) -> tuple[str, int]:
    """Split ``HOST:PORT`` (IPv4/hostname) into its parts."""
    host, sep, port_text = str(text).rpartition(":")
    if not sep or not host:
        raise SweepError(f"expected HOST:PORT, got {text!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise SweepError(f"bad port in {text!r}") from None
    if not 0 <= port <= 65535:
        raise SweepError(f"port out of range in {text!r}")
    return host, port


def grid_signature(points: Sequence[tuple[int, SweepPoint]]) -> str:
    """Content identity of one (sub)grid: SHA-256 over its point keys.

    Embeds each point's function path, canonical kwargs fingerprint, and
    the package version (via :func:`~repro.sweep.cache.point_key`), plus
    the grid *indices* — so results stored for one grid can never be
    replayed into a different one, a reordered grid, or another code
    version.
    """
    return grid_signature_of(
        (index, point_key(point.func_path, dict(point.kwargs))) for index, point in points
    )


#: :func:`grid_signature` from ``(index, point key)`` pairs the caller
#: already holds: the same ``index:id`` digest as the grid fingerprint.
grid_signature_of = grid_fingerprint_of


@dataclass(frozen=True)
class Assignment:
    """One leased unit of work, shipped coordinator -> worker."""

    index: int
    point: SweepPoint
    lease_seconds: float
    #: Whether the worker must capture a telemetry snapshot.
    capture: bool = True
    #: Signature of the grid this assignment belongs to; echoed back in
    #: DONE/FAIL so a result can never land in a different grid's table.
    grid: str = ""
    #: Trace context stamped by the coordinator: ``trace_id`` identifies
    #: the sweep (grid-signature prefix), ``span_id`` this specific
    #: lease (``index/lease-generation``). Worker-side spans carry both
    #: so the merged fleet trace links every execution to its lease.
    trace_id: str = ""
    span_id: str = ""

    def to_bytes(self) -> bytes:
        return pickle.dumps(
            {"format": WIRE_FORMAT, "assignment": self},
            protocol=pickle.HIGHEST_PROTOCOL,
        )

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Assignment":
        payload = pickle.loads(blob)
        if not isinstance(payload, dict) or payload.get("format") != WIRE_FORMAT:
            raise SweepError("malformed assignment payload")
        assignment = payload["assignment"]
        if not isinstance(assignment, cls):
            raise SweepError("malformed assignment payload")
        return assignment


def dump_result(value: Any, snapshot: Any) -> bytes:
    """Encode one completed point's (value, telemetry snapshot)."""
    return pickle.dumps(
        {"format": WIRE_FORMAT, "value": value, "snapshot": snapshot},
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_result(blob: bytes) -> tuple[Any, Any]:
    """Decode one result payload (current wire format or persisted v4)."""
    payload = pickle.loads(blob)
    if not isinstance(payload, dict) or payload.get("format") not in _RESULT_FORMATS:
        raise SweepError("malformed result payload")
    return payload["value"], payload["snapshot"]


def dump_submission(
    name: str,
    points: Sequence[tuple[int, SweepPoint]],
    tenant: str = "",
    capture: bool = True,
) -> bytes:
    """Encode one SUBMIT payload (a named grid + its execution options).

    The grid signature is *not* shipped — the service recomputes it from
    the points, so a tenant can never claim one grid's identity for
    another grid's content.
    """
    return pickle.dumps(
        {
            "format": WIRE_FORMAT,
            "name": str(name),
            "tenant": str(tenant),
            "points": [(int(i), p) for i, p in points],
            "capture": bool(capture),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_submission(blob: bytes) -> dict:
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise SweepError(f"unreadable SUBMIT payload: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != WIRE_FORMAT:
        raise SweepError("malformed SUBMIT payload")
    points = payload.get("points")
    if not isinstance(points, list) or not points:
        raise SweepError("SUBMIT payload has no points")
    for item in points:
        if not (
            isinstance(item, (tuple, list))
            and len(item) == 2
            and isinstance(item[1], SweepPoint)
        ):
            raise SweepError("SUBMIT payload points must be (index, SweepPoint)")
    return payload


def dump_results_reply(
    state: str, payloads: dict[int, bytes], poisoned: Optional[dict] = None
) -> bytes:
    """Encode one RESULTS reply: raw per-point wire payloads + job state.

    Payloads are shipped exactly as the store recorded them (the bytes
    the worker produced with :func:`dump_result`) — no decode/re-encode
    round trip, which is what makes restart results byte-identical.
    """
    return pickle.dumps(
        {
            "format": WIRE_FORMAT,
            "state": str(state),
            "payloads": {int(i): bytes(b) for i, b in payloads.items()},
            "poisoned": dict(poisoned or {}),
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )


def load_results_reply(blob: bytes) -> dict:
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise SweepError(f"unreadable RESULTS payload: {exc}") from None
    if not isinstance(payload, dict) or payload.get("format") != WIRE_FORMAT:
        raise SweepError("malformed RESULTS payload")
    return payload


def dump_spans(spans: Sequence[dict]) -> str:
    """Encode fleet spans for the SPANS command (JSON, wall-clock secs)."""
    return json.dumps(list(spans), sort_keys=True)


def load_spans(text: str) -> list[dict]:
    """Decode and sanity-check a SPANS payload.

    Malformed *entries* are dropped rather than failing the whole batch
    (a fleet trace with a hole beats a worker burning its claim loop on
    rejected observability), but a payload that is not a JSON list at
    all is a protocol error.
    """
    try:
        payload = json.loads(text) if text else []
    except ValueError:
        raise SweepError("SPANS payload must be JSON") from None
    if not isinstance(payload, list):
        raise SweepError("SPANS payload must be a JSON list")
    spans: list[dict] = []
    for record in payload:
        if not isinstance(record, dict):
            continue
        try:
            start = float(record["start"])
            end = float(record["end"])
        except (KeyError, TypeError, ValueError):
            continue
        if end < start or not record.get("name"):
            continue
        args = record.get("args")
        spans.append(
            {
                "name": str(record["name"]),
                "category": str(record.get("category", "point")),
                "start": start,
                "end": end,
                "tid": int(record.get("tid", 0)),
                "args": dict(args) if isinstance(args, dict) else {},
            }
        )
    return spans


@dataclass
class FailureRecord:
    """One worker-side failure of one point (FAIL payload)."""

    worker: str
    error: str
    traceback: str = ""

    def as_dict(self) -> dict:
        return {"worker": self.worker, "error": self.error, "traceback": self.traceback}

    @classmethod
    def from_dict(cls, data: dict) -> "FailureRecord":
        return cls(
            worker=str(data.get("worker", "?")),
            error=str(data.get("error", "?")),
            traceback=str(data.get("traceback", "")),
        )


@dataclass
class GridInfo:
    """HELLO reply: what the coordinator is serving."""

    grid: str
    n_points: int
    lease_seconds: float
    version: str
    remaining: int = 0
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "grid": self.grid,
            "n_points": self.n_points,
            "lease_seconds": self.lease_seconds,
            "version": self.version,
            "remaining": self.remaining,
            **self.extra,
        }
