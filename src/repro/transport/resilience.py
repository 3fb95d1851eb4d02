"""Resilience policies around DataStore operations.

Production coupled runs see node failures, degraded links, and metadata
stalls; this module provides the client-side countermeasures the paper's
healthy-path benchmarks leave out:

* :class:`RetryPolicy` — per-op timeout, bounded exponential backoff
  with seeded jitter, and a retry budget; only failures whose exception
  class is marked ``retryable`` (see :mod:`repro.errors`) are retried;
* :class:`CircuitBreaker` — classic closed / open / half-open breaker so
  a dead backend sheds load instead of burning every client's retry
  budget on it;
* :class:`ResilientSimDataStore` — wraps a
  :class:`~repro.transport.simstore.SimDataStore`, retrying in *virtual*
  time (backoff delays are DES timeouts), which keeps chaos experiments
  deterministic;
* :class:`ResilientClient` — the same policy around a real
  :class:`~repro.transport.base.DataStoreClient` (wall-clock sleeps);
* :class:`FaultingClient` — a seeded chaos wrapper for real backends
  (drop / corrupt / unavailability per operation), the real-mode
  counterpart of the DES fault injector.

All wrappers share one :class:`ResilienceStats`: the record of every
failed attempt (retries and giveups are counts over it) and the
failure->success recovery latencies, which is how pattern runs report
them.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Generator, Iterable, NamedTuple, Optional

import numpy as np

from repro.des.rng import _derive_seed
from repro.errors import (
    BackendUnavailableError,
    CircuitOpenError,
    ConfigError,
    CorruptPayloadError,
    TimeoutError as StoreTimeoutError,
    TransportError,
)

__all__ = [
    "BreakerState",
    "CircuitBreaker",
    "FailedAttempt",
    "FaultingClient",
    "ResilienceConfig",
    "ResilienceStats",
    "ResilientClient",
    "ResilientSimDataStore",
    "RetryPolicy",
    "chaos_client_from_config",
    "policy_from_dict",
    "resilient_client_from_config",
]


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + bounded exponential backoff with jitter.

    The delay before retry ``n`` (1-based) is ``base_delay *
    multiplier**(n-1)``, capped at ``max_delay``, then jittered by a
    uniform factor in ``[1-jitter, 1+jitter]`` drawn from the caller's
    seeded RNG — deterministic under a fixed seed, desynchronised across
    clients (no retry storms).
    """

    max_attempts: int = 4
    base_delay: float = 0.05
    multiplier: float = 2.0
    max_delay: float = 2.0
    jitter: float = 0.1
    timeout: float = 30.0  # per-operation budget (virtual seconds in sim mode)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError("max_attempts must be >= 1")
        if min(self.base_delay, self.max_delay, self.timeout) <= 0:
            raise ConfigError("delays and timeout must be positive")
        if self.multiplier < 1.0:
            raise ConfigError("multiplier must be >= 1")
        if not 0.0 <= self.jitter < 1.0:
            raise ConfigError("jitter must be in [0, 1)")

    def delay(self, attempt: int, rng: Optional[np.random.Generator] = None) -> float:
        """Backoff before retrying after failed attempt ``attempt`` (1-based)."""
        if attempt < 1:
            raise ConfigError(f"attempt is 1-based, got {attempt}")
        raw = min(self.max_delay, self.base_delay * self.multiplier ** (attempt - 1))
        if rng is None or self.jitter == 0.0:
            return raw
        return raw * float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))

    def schedule(self, rng: Optional[np.random.Generator] = None) -> list[float]:
        """The full backoff schedule (one delay per possible retry)."""
        return [self.delay(n, rng) for n in range(1, self.max_attempts)]


class BreakerState(str, Enum):
    """Breaker lifecycle: closed (healthy) -> open (shedding) -> half-open (probing)."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half-open"


class CircuitBreaker:
    """Sheds load from a failing backend until it shows signs of life.

    ``failure_threshold`` consecutive failures open the circuit; while
    open, :meth:`allow` rejects calls. After ``reset_timeout`` (by the
    injected ``clock`` — bind ``lambda: env.now`` in sim mode) the next
    ``allow`` transitions to half-open and lets one probe through: its
    success closes the circuit, its failure re-opens it.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
        name: str = "breaker",
    ) -> None:
        if failure_threshold < 1:
            raise ConfigError("failure_threshold must be >= 1")
        if reset_timeout <= 0:
            raise ConfigError("reset_timeout must be positive")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.clock = clock or time.monotonic
        self.name = name
        self.state = BreakerState.CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self._probe_started: Optional[float] = None
        #: (time, from_state, to_state) — test hook and telemetry feed.
        self.transitions: list[tuple[float, str, str]] = []
        # No caller shares a breaker across threads today (each
        # DataStore client and each simulated store builds its own);
        # the lock keeps the open -> half-open probe transition
        # single-winner should one ever be shared.
        self._lock = threading.RLock()

    def _transition(self, to: BreakerState) -> None:
        self.transitions.append((self.clock(), self.state.value, to.value))
        self.state = to

    def allow(self) -> bool:
        """May a call proceed right now? (May move open -> half-open.)

        Half-open admits a *single* probe: concurrent callers are shed
        until the probe reports back. A probe that never reports (its
        thread died) forfeits after another ``reset_timeout``, at which
        point the next caller becomes the probe.
        """
        with self._lock:
            if self.state is BreakerState.OPEN:
                assert self.opened_at is not None
                if self.clock() - self.opened_at >= self.reset_timeout:
                    self._transition(BreakerState.HALF_OPEN)
                    self._probe_started = self.clock()
                    return True
                return False
            if self.state is BreakerState.HALF_OPEN:
                if (
                    self._probe_started is not None
                    and self.clock() - self._probe_started < self.reset_timeout
                ):
                    return False  # a probe is in flight; shed everyone else
                self._probe_started = self.clock()  # lost probe: take over
                return True
            return True

    def record_success(self) -> None:
        """A call succeeded: close the circuit and reset the failure run."""
        with self._lock:
            self.consecutive_failures = 0
            self._probe_started = None
            if self.state is not BreakerState.CLOSED:
                self._transition(BreakerState.CLOSED)
                self.opened_at = None

    def record_failure(self) -> None:
        """A call failed: trip on threshold, or re-open a failed probe."""
        with self._lock:
            self.consecutive_failures += 1
            if self.state is BreakerState.HALF_OPEN:
                self._transition(BreakerState.OPEN)
                self.opened_at = self.clock()
                self._probe_started = None
            elif (
                self.state is BreakerState.CLOSED
                and self.consecutive_failures >= self.failure_threshold
            ):
                self._transition(BreakerState.OPEN)
                self.opened_at = self.clock()


class FailedAttempt(NamedTuple):
    """One failed attempt of one logical operation."""

    time: float  # on the wrapper's clock (``env.now`` in sim mode)
    track: str  # the component (client name) the operation ran on
    op: str
    key: str
    attempt: int  # 1-based
    error: str  # the exception class name
    gave_up: bool  # the failure was re-raised, not retried


@dataclass
class ResilienceStats:
    """What every resilient wrapper of one run saw fail and recover."""

    failed: list[FailedAttempt] = field(default_factory=list)
    breaker_rejections: int = 0
    recovery_latencies: list[float] = field(default_factory=list)
    _first_failure: dict[tuple[str, str], float] = field(default_factory=dict)

    @property
    def failures(self) -> int:
        return len(self.failed)

    @property
    def giveups(self) -> int:
        """Operations whose retry budget ran out (or whose error was fatal)."""
        return sum(1 for attempt in self.failed if attempt.gave_up)

    @property
    def retries(self) -> int:
        """Re-attempts after a retryable failure."""
        return self.failures - self.giveups

    @property
    def recoveries(self) -> int:
        return len(self.recovery_latencies)

    def note_failure(self, attempt: FailedAttempt) -> None:
        """Record a failed attempt; starts the recovery clock of its track
        and op. A giveup keeps that clock running: a later success still
        counts recovery latency from the moment service was first lost."""
        self.failed.append(attempt)
        self._first_failure.setdefault((attempt.track, attempt.op), attempt.time)

    def note_rejection(self) -> None:
        """The circuit breaker refused a call without attempting it."""
        self.breaker_rejections += 1

    def note_success(self, track: str, op: str, t: float) -> None:
        """Ends the recovery clock of ``(track, op)``, if one is running."""
        first = self._first_failure.pop((track, op), None)
        if first is not None:
            self.recovery_latencies.append(t - first)

    def as_dict(self) -> dict:
        """The counters as reported through ``PatternResult.resilience``."""
        lat = self.recovery_latencies
        return {
            "retries": self.retries,
            "failures": self.failures,
            "giveups": self.giveups,
            "breaker_rejections": self.breaker_rejections,
            "recoveries": self.recoveries,
            "mean_recovery_seconds": sum(lat) / len(lat) if lat else 0.0,
            "max_recovery_seconds": max(lat) if lat else 0.0,
        }


@dataclass(frozen=True)
class ResilienceConfig:
    """Workload-level resilience knobs for the pattern runners.

    ``staleness_bound`` (pattern 1): simulated seconds the trainer may go
    without ingesting a fresh snapshot before a staleness violation is
    counted. ``quorum`` (pattern 2): fraction of producers whose update
    must be read before the trainer proceeds; missing members are counted
    as quorum misses instead of blocking forever.
    """

    policy: RetryPolicy = field(default_factory=RetryPolicy)
    use_breaker: bool = True
    breaker_threshold: int = 5
    breaker_reset: float = 5.0
    staleness_bound: float = float("inf")
    quorum: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.quorum <= 1.0:
            raise ConfigError("quorum must be in (0, 1]")
        if self.staleness_bound <= 0:
            raise ConfigError("staleness_bound must be positive")

    def make_breaker(self, clock: Callable[[], float]) -> Optional[CircuitBreaker]:
        """A breaker bound to ``clock`` (env.now in sim mode), or None."""
        if not self.use_breaker:
            return None
        return CircuitBreaker(
            failure_threshold=self.breaker_threshold,
            reset_timeout=self.breaker_reset,
            clock=clock,
        )


def _is_retryable(exc: BaseException) -> bool:
    """Dispatch on the exception class's ``retryable`` marker."""
    return bool(getattr(exc, "retryable", False))


def _trips_breaker(exc: BaseException) -> bool:
    """Only availability-class failures feed the breaker.

    Payload-level failures (corruption) prove the backend is alive and
    answering; tripping on them would shed load from a healthy service.
    """
    return isinstance(exc, (BackendUnavailableError, StoreTimeoutError))


class ResilientSimDataStore:
    """Retry/backoff/breaker around a SimDataStore, in virtual time.

    The success path is a plain ``yield from`` — no extra DES events, no
    RNG draws — so wrapping a healthy run leaves its event sequence
    bit-identical. Failures consult the policy: retryable errors back
    off (a DES timeout drawn from the seeded ``rng``) and re-attempt;
    fatal errors and exhausted budgets re-raise to the workload, which
    decides how to degrade.
    """

    def __init__(
        self,
        store,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        rng: Optional[np.random.Generator] = None,
        stats: Optional[ResilienceStats] = None,
    ) -> None:
        self.store = store
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self.rng = rng
        self.stats = stats or ResilienceStats()
        # Let the sim store model per-op timeouts (stalled ops abort).
        if getattr(store, "op_timeout", None) is None:
            store.op_timeout = self.policy.timeout

    # passthroughs the workloads use
    @property
    def env(self):
        return self.store.env

    @property
    def component(self) -> str:
        return self.store.component

    @property
    def rank(self) -> int:
        return self.store.rank

    @property
    def backend(self) -> str:
        return self.store.backend

    def clean_staged_data(self, keys: Optional[list[str]] = None) -> int:
        return self.store.clean_staged_data(keys)

    # -- wrapped staging API ------------------------------------------------
    def stage_write(self, key: str, nbytes: float, ctx=None) -> Generator:
        result = yield from self._attempt(
            "write", key, lambda: self.store.stage_write(key, nbytes, ctx)
        )
        return result

    def stage_read(self, key: str, ctx=None) -> Generator:
        result = yield from self._attempt(
            "read", key, lambda: self.store.stage_read(key, ctx)
        )
        return result

    def poll_staged_data(self, key: str, ctx=None) -> Generator:
        result = yield from self._attempt(
            "poll", key, lambda: self.store.poll_staged_data(key, ctx)
        )
        return result

    def _attempt(self, op: str, key: str, thunk: Callable[[], Generator]) -> Generator:
        """One logical op: breaker gate, attempt, classify, back off, repeat."""
        env, track = self.store.env, self.component
        for attempt in range(1, self.policy.max_attempts + 1):
            if self.breaker is not None and not self.breaker.allow():
                self.stats.note_rejection()
                raise CircuitOpenError(
                    f"circuit open for backend {self.backend!r} ({op} {key!r})"
                )
            try:
                result = yield from thunk()
            except TransportError as exc:
                if self.breaker is not None and _trips_breaker(exc):
                    self.breaker.record_failure()
                gave_up = not _is_retryable(exc) or attempt == self.policy.max_attempts
                self.stats.note_failure(FailedAttempt(
                    env.now, track, op, key, attempt, type(exc).__name__, gave_up
                ))
                if gave_up:
                    raise
                yield self.policy.delay(attempt, self.rng)
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self.stats.note_success(track, op, env.now)
                return result
        raise AssertionError("unreachable")  # pragma: no cover


class ResilientClient:
    """The same retry/backoff/breaker policy around a real client.

    Exposes the DataStoreClient surface (``stage_*`` / ``poll`` /
    ``clean`` / ``close`` / ``stats``), so it slots into
    :class:`~repro.transport.datastore.DataStore` transparently.
    Backoff sleeps use the injected ``sleep`` (default
    :func:`time.sleep`); per-op timeouts rely on the backends' socket
    timeouts surfacing :class:`~repro.errors.BackendUnavailableError`.
    """

    def __init__(
        self,
        client,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        rng: Optional[np.random.Generator] = None,
        stats: Optional[ResilienceStats] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.client = client
        self.policy = policy or RetryPolicy()
        self.breaker = breaker
        self.rng = rng
        self.resilience = stats or ResilienceStats()
        self._sleep = sleep
        self._clock = time.monotonic

    # -- client surface passthrough ----------------------------------------
    @property
    def backend_name(self) -> str:
        return self.client.backend_name

    @property
    def name(self) -> str:
        return self.client.name

    @property
    def stats(self):
        return self.client.stats

    @property
    def event_log(self):
        return self.client.event_log

    def close(self) -> None:
        self.client.close()

    def __enter__(self) -> "ResilientClient":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- wrapped operations --------------------------------------------------
    def stage_write(self, key: str, value: Any) -> float:
        return self._attempt("write", key, lambda: self.client.stage_write(key, value))

    def stage_read(self, key: str) -> Any:
        return self._attempt("read", key, lambda: self.client.stage_read(key))

    def poll_staged_data(self, key: str) -> bool:
        return self._attempt("poll", key, lambda: self.client.poll_staged_data(key))

    def clean_staged_data(self, keys: Optional[Iterable[str]] = None) -> int:
        return self._attempt("clean", "", lambda: self.client.clean_staged_data(keys))

    def _attempt(self, op: str, key: str, thunk: Callable[[], Any]) -> Any:
        track = self.client.name
        for attempt in range(1, self.policy.max_attempts + 1):
            if self.breaker is not None and not self.breaker.allow():
                self.resilience.note_rejection()
                raise CircuitOpenError(
                    f"circuit open for backend {self.backend_name!r} ({op})"
                )
            try:
                result = thunk()
            except TransportError as exc:
                if self.breaker is not None and _trips_breaker(exc):
                    self.breaker.record_failure()
                gave_up = not _is_retryable(exc) or attempt == self.policy.max_attempts
                self.resilience.note_failure(FailedAttempt(
                    self._clock(), track, op, key, attempt, type(exc).__name__, gave_up
                ))
                if gave_up:
                    raise
                self._sleep(self.policy.delay(attempt, self.rng))
            else:
                if self.breaker is not None:
                    self.breaker.record_success()
                self.resilience.note_success(track, op, self._clock())
                return result
        raise AssertionError("unreachable")  # pragma: no cover


class FaultingClient:
    """Deterministic chaos wrapper for a real DataStoreClient.

    Injects, per operation and from a seeded RNG: transient backend
    unavailability (``unavailable``), silent write drops (``drop``), and
    payload corruption on read (``corrupt``). The real-mode counterpart
    of the DES :class:`~repro.faults.injector.FaultInjector`, meant to
    sit *under* a :class:`ResilientClient` so retries actually re-roll.
    """

    def __init__(
        self,
        client,
        unavailable: float = 0.0,
        drop: float = 0.0,
        corrupt: float = 0.0,
        seed: int = 0,
    ) -> None:
        for name, p in (("unavailable", unavailable), ("drop", drop), ("corrupt", corrupt)):
            if not 0.0 <= p <= 1.0:
                raise ConfigError(f"{name} probability must be in [0, 1], got {p}")
        self.client = client
        self.unavailable = unavailable
        self.drop = drop
        self.corrupt = corrupt
        self._rng = np.random.default_rng(seed)
        self.injected = {"unavailable": 0, "drop": 0, "corrupt": 0}

    @property
    def backend_name(self) -> str:
        return self.client.backend_name

    @property
    def name(self) -> str:
        return self.client.name

    @property
    def stats(self):
        return self.client.stats

    @property
    def event_log(self):
        return self.client.event_log

    def close(self) -> None:
        self.client.close()

    def _maybe_unavailable(self, op: str) -> None:
        if self.unavailable and self._rng.random() < self.unavailable:
            self.injected["unavailable"] += 1
            raise BackendUnavailableError(f"injected outage during {op}")

    def stage_write(self, key: str, value: Any) -> float:
        self._maybe_unavailable("write")
        if self.drop and self._rng.random() < self.drop:
            # Silently lost in transit: report success, stage nothing.
            self.injected["drop"] += 1
            return 0.0
        return self.client.stage_write(key, value)

    def stage_read(self, key: str) -> Any:
        self._maybe_unavailable("read")
        if self.corrupt and self._rng.random() < self.corrupt:
            self.injected["corrupt"] += 1
            raise CorruptPayloadError(f"injected corruption reading {key!r}")
        return self.client.stage_read(key)

    def poll_staged_data(self, key: str) -> bool:
        self._maybe_unavailable("poll")
        return self.client.poll_staged_data(key)

    def clean_staged_data(self, keys: Optional[Iterable[str]] = None) -> int:
        return self.client.clean_staged_data(keys)


# -- config-driven construction (server_info plumbing) ------------------------

_POLICY_FIELDS = ("max_attempts", "base_delay", "multiplier", "max_delay", "jitter", "timeout")


def policy_from_dict(config: dict) -> RetryPolicy:
    """A RetryPolicy from a plain dict (unknown keys ignored)."""
    return RetryPolicy(**{k: config[k] for k in _POLICY_FIELDS if k in config})


def resilient_client_from_config(
    client, config: dict, name: str = "client", rank: int = 0
) -> ResilientClient:
    """Wrap a real client per a ``server_info['resilience']`` dict.

    Recognised keys: the RetryPolicy fields, plus ``breaker`` (bool,
    default True), ``breaker_threshold``, ``breaker_reset``, ``seed``.
    The jitter RNG seed is derived from (seed, name, rank) so each rank
    desynchronises its retries deterministically.
    """
    breaker = None
    if config.get("breaker", True):
        breaker = CircuitBreaker(
            failure_threshold=int(config.get("breaker_threshold", 5)),
            reset_timeout=float(config.get("breaker_reset", 5.0)),
            name=f"{name}:{rank}",
        )
    rng = np.random.default_rng(
        _derive_seed(int(config.get("seed", 0)), f"resilience:{name}:{rank}")
    )
    return ResilientClient(client, policy=policy_from_dict(config), breaker=breaker, rng=rng)


def chaos_client_from_config(
    client, config: dict, name: str = "client", rank: int = 0
) -> FaultingClient:
    """Wrap a real client per a ``server_info['chaos']`` dict.

    Recognised keys: ``unavailable``, ``drop``, ``corrupt`` (per-op
    probabilities) and ``seed``. Each rank draws from its own derived
    stream so chaos is reproducible across runs yet uncorrelated across
    clients.
    """
    return FaultingClient(
        client,
        unavailable=float(config.get("unavailable", 0.0)),
        drop=float(config.get("drop", 0.0)),
        corrupt=float(config.get("corrupt", 0.0)),
        seed=_derive_seed(int(config.get("seed", 0)), f"chaos:{name}:{rank}"),
    )
