"""Exception hierarchy for the repro package.

All exceptions raised by the library derive from :class:`ReproError` so that
callers can catch library failures without catching programming errors.
"""

from __future__ import annotations

import builtins


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigError(ReproError):
    """A configuration value is missing, malformed, or inconsistent."""


class SimulationError(ReproError):
    """The discrete-event simulation reached an invalid state."""


class EmptyLogError(ReproError):
    """A time-window query (span/makespan) was made on an empty event log."""


class TransportError(ReproError):
    """A data-transport backend operation failed.

    ``retryable`` classifies the failure for retry policies
    (:mod:`repro.transport.resilience`): transient conditions — timeouts,
    unreachable servers, corrupted payloads — may be re-attempted, while
    programming/configuration errors must surface immediately.
    """

    #: Whether a retry policy may reasonably re-attempt the operation.
    retryable = False


class KeyNotStagedError(TransportError, KeyError):
    """A ``stage_read`` was issued for a key that has not been staged.

    Not retryable: absence is a normal workflow state (poll first), not a
    transient backend failure.
    """

    def __init__(self, key: str, backend: str = "") -> None:
        self.key = key
        self.backend = backend
        where = f" in backend {backend!r}" if backend else ""
        super().__init__(f"key {key!r} is not staged{where}")


class TimeoutError(TransportError, builtins.TimeoutError):  # noqa: A001
    """A transport operation exceeded its configured timeout.

    Also subclasses the builtin ``TimeoutError`` so generic handlers
    (``except TimeoutError``) catch it without importing repro.
    """

    retryable = True


class ServerError(TransportError):
    """A data server failed to start, stop, or respond."""


class BackendUnavailableError(ServerError):
    """The backend cannot be reached (server down, link cut, partition).

    The canonical *retryable* failure: the operation itself was valid and
    may succeed once the outage heals.
    """

    retryable = True


class CorruptPayloadError(TransportError):
    """A staged value failed to deserialize (torn write, bit flip, drop).

    Retryable: a re-read after the producer re-stages may succeed.
    """

    retryable = True


class HelloRefusedError(TransportError):
    """A sweep service answered a client's ``HELLO`` with ``-ERR``.

    Fatal, never retried: a worker whose version the service refuses
    would compute a different grid if it joined anyway.
    """


class ServiceBusyError(ServerError):
    """The server refused the operation under overload (``-BUSY`` reply).

    The canonical *graceful degradation* signal: the request was valid
    but the server is shedding load (tenant quota exhausted, dispatch
    queue full, brownout). Carries the machine-readable refusal reason
    and the server's seeded ``retry_after_s`` hint so retry policies can
    honor the server's pacing instead of their own fixed backoff.
    """

    retryable = True

    def __init__(
        self,
        reason: str = "busy",
        retry_after_s: "float | None" = None,
        detail: "dict | None" = None,
    ) -> None:
        self.reason = reason
        self.retry_after_s = retry_after_s
        self.detail = dict(detail or {})
        hint = "" if retry_after_s is None else f" (retry after {retry_after_s:.2f}s)"
        super().__init__(f"server busy: {reason}{hint}")


class CircuitOpenError(TransportError):
    """A circuit breaker is open: the call was short-circuited, not sent.

    Not retryable by the inner policy — callers should back off at a
    coarser granularity (or degrade gracefully) until the breaker's reset
    timeout elapses.
    """


class FaultPlanError(ConfigError):
    """A fault-injection plan is malformed or inconsistent."""


class SweepError(ReproError):
    """A parallel parameter sweep failed (engine-level, not one point)."""


class SweepPointError(SweepError):
    """One sweep point failed in a serial or pooled run.

    Carries the point's label and the original cause so sweep callers can
    report *which* grid cell died without unpacking tracebacks.
    """

    def __init__(self, label: str, cause: BaseException) -> None:
        self.label = label
        self.cause = cause
        super().__init__(f"sweep point {label!r} failed: {cause!r}")

    def __reduce__(self):  # exceptions cross process-pool boundaries
        return (type(self), (self.label, self.cause))


class SweepStoreError(SweepError):
    """The SQLite-backed sweep store is unusable.

    Raised when the database fails its integrity check on open (real
    corruption, not a torn tail — torn writes roll back silently), when
    its schema version is newer than this code, or when the store has
    been closed.
    """


class SweepPoisonedError(SweepError):
    """One or more grid points were quarantined as poison.

    A point is poisoned when it fails terminally on enough *distinct*
    workers (or accumulates enough total failures) that re-queueing it
    would only burn the fleet. Carries every quarantined point's label
    and the collected failure records (worker, error, traceback) so the
    operator can see exactly which cell is toxic and why.
    """

    def __init__(self, poisoned: list) -> None:
        #: [{"label": ..., "index": ..., "failures": [{"worker", "error",
        #: "traceback"}, ...]}] per quarantined point.
        self.poisoned = list(poisoned)
        labels = ", ".join(repr(p.get("label", p.get("index"))) for p in self.poisoned)
        errors = "; ".join(
            f"{p.get('label', p.get('index'))}: {p['failures'][-1].get('error', '?')}"
            for p in self.poisoned
            if p.get("failures")
        )
        message = f"{len(self.poisoned)} sweep point(s) poisoned: {labels}"
        if errors:
            message += f" ({errors})"
        super().__init__(message)

    def __reduce__(self):  # crosses process boundaries in reports
        return (type(self), (self.poisoned,))


class WorkflowError(ReproError):
    """Workflow construction or execution failed."""


class DependencyCycleError(WorkflowError):
    """The component dependency graph contains a cycle."""


class KernelError(ReproError):
    """A mini-app kernel was misconfigured or failed to execute."""


class DeviceError(KernelError):
    """An operation referenced an unknown or incompatible device."""


class MLError(ReproError):
    """A machine-learning component failed (shape mismatch, bad config...)."""
