"""Admission control + brownout state machine for the sweep service.

The overload-protection policy brain, kept separate from the service's
wire plumbing so its decisions are unit-testable without a socket:

* :class:`TenantQuota` — the per-tenant admission limits checked at
  SUBMIT (max live jobs, max queued points, max store bytes). ``None``
  means unlimited, so a default-constructed quota admits everything and
  existing deployments are unaffected.
* :class:`AdmissionController` — stateful: refusal counters, the
  seeded-jittered ``retry_after_s`` hints, a store-write-latency EWMA,
  and the two-state brownout machine (``ready`` ⇄ ``brownout``) with
  hysteresis so the service does not flap at the threshold.

Determinism: every retry hint is drawn from one RNG seeded via
:func:`~repro.sweep.point.derive_seed`, and the service serializes
command dispatch, so a fixed sequence of refusals yields a fixed
sequence of hints — tests and the CI overload drill can assert exact
shedding behavior.

The brownout rule (graceful degradation under resource pressure, per
the "Twelve quick tips" workflow-design guidance): when the dispatch
backlog or the store's write latency crosses its threshold the service
*declares* brownout — new SUBMITs are refused with a typed ``-BUSY``
while CLAIM/DONE keep flowing, so the backlog drains instead of
growing until the process dies. Recovery requires dropping below
``recovery_fraction`` of the threshold (hysteresis).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.sweep.point import derive_seed

#: Brownout state names (also the ``state`` field of HEALTH documents).
READY = "ready"
BROWNOUT = "brownout"
DRAINING = "draining"

#: Smoothing factor of the store-write-latency EWMA (weight of the
#: newest observation). High enough that a stall shows within a few
#: writes, low enough that one slow fsync does not trip brownout.
_LATENCY_ALPHA = 0.2


@dataclass(frozen=True)
class TenantQuota:
    """Per-tenant admission limits; ``None`` = unlimited.

    * ``max_live_jobs`` — non-terminal jobs a tenant may have at once.
    * ``max_queued_points`` — outstanding (not done/poisoned) points
      across the tenant's live jobs, including the submission being
      admitted.
    * ``max_store_bytes`` — live bytes in the shared store
      (:meth:`~repro.sweep.dist.store.SweepStore.used_bytes`); a global
      backstop checked per submission, and the one that recovers after
      GC collects terminal jobs.
    """

    max_live_jobs: Optional[int] = None
    max_queued_points: Optional[int] = None
    max_store_bytes: Optional[int] = None

    @property
    def unlimited(self) -> bool:
        return (
            self.max_live_jobs is None
            and self.max_queued_points is None
            and self.max_store_bytes is None
        )

    def as_dict(self) -> dict:
        return {
            "max_live_jobs": self.max_live_jobs,
            "max_queued_points": self.max_queued_points,
            "max_store_bytes": self.max_store_bytes,
        }

    def headroom(
        self, live_jobs: int, queued_points: int, store_bytes: Optional[int]
    ) -> dict:
        """Remaining capacity per axis (``None`` = unlimited axis)."""
        return {
            "live_jobs": (
                None
                if self.max_live_jobs is None
                else max(0, self.max_live_jobs - live_jobs)
            ),
            "queued_points": (
                None
                if self.max_queued_points is None
                else max(0, self.max_queued_points - queued_points)
            ),
            "store_bytes": (
                None
                if self.max_store_bytes is None or store_bytes is None
                else max(0, self.max_store_bytes - store_bytes)
            ),
        }


class AdmissionController:
    """Quota checks, refusal bookkeeping, and the brownout machine."""

    def __init__(
        self,
        quota: Optional[TenantQuota] = None,
        brownout_backlog: Optional[int] = None,
        brownout_store_latency_s: Optional[float] = 1.0,
        recovery_fraction: float = 0.5,
        busy_retry_s: float = 1.0,
        seed: int = 0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.quota = quota if quota is not None else TenantQuota()
        self.brownout_backlog = brownout_backlog
        self.brownout_store_latency_s = brownout_store_latency_s
        self.recovery_fraction = float(recovery_fraction)
        self.busy_retry_s = float(busy_retry_s)
        self.clock = clock
        self._rng = random.Random(derive_seed(seed, "admission"))
        self.state = READY
        self.brownouts = 0  # transitions into brownout
        self.busy_refusals = 0
        self.refusals_by_reason: dict[str, int] = {}
        self.store_write_latency_s = 0.0
        self._brownout_cause: Optional[str] = None
        self._brownout_since: Optional[float] = None

    # -- refusal plumbing ----------------------------------------------------
    def retry_hint(self, scale: float = 1.0) -> float:
        """A seeded-jittered ``retry_after_s``: refused peers spread out.

        Uniform in ``[0.5, 1.5) * busy_retry_s * scale`` — the same
        half-to-three-halves window the client's own backoff uses, but
        drawn server-side from one seeded stream so a synchronized
        thundering herd is de-synchronized deterministically.
        """
        base = self.busy_retry_s * float(scale)
        return base * (0.5 + self._rng.random())

    def refuse(
        self, reason: str, scale: float = 1.0, **extra: Any
    ) -> dict:
        """Record one refusal; returns the ``-BUSY`` document fields."""
        self.busy_refusals += 1
        self.refusals_by_reason[reason] = (
            self.refusals_by_reason.get(reason, 0) + 1
        )
        doc = {"reason": reason, "retry_after_s": self.retry_hint(scale)}
        doc.update(extra)
        return doc

    # -- quota checks --------------------------------------------------------
    def check_submit(
        self,
        tenant: str,
        live_jobs: int,
        queued_points: int,
        n_points: int,
        store_bytes: Optional[int],
    ) -> Optional[dict]:
        """None to admit; a refusal document otherwise.

        Checked *after* the idempotency short-circuits: a resubmission
        of a known grid adds no load and is never refused. ``live_jobs``
        and ``queued_points`` count the tenant's state before this
        submission; the submission itself (1 job, ``n_points`` points)
        must also fit.
        """
        if self.state == BROWNOUT:
            return self.refuse(
                "brownout", scale=4.0, cause=self._brownout_cause, tenant=tenant
            )
        q = self.quota
        if q.max_live_jobs is not None and live_jobs + 1 > q.max_live_jobs:
            return self.refuse(
                "tenant-live-jobs",
                tenant=tenant,
                limit=q.max_live_jobs,
                live_jobs=live_jobs,
            )
        if (
            q.max_queued_points is not None
            and queued_points + n_points > q.max_queued_points
        ):
            return self.refuse(
                "tenant-queued-points",
                tenant=tenant,
                limit=q.max_queued_points,
                queued_points=queued_points,
                n_points=n_points,
            )
        if (
            q.max_store_bytes is not None
            and store_bytes is not None
            and store_bytes >= q.max_store_bytes
        ):
            return self.refuse(
                "tenant-store-bytes",
                scale=2.0,
                tenant=tenant,
                limit=q.max_store_bytes,
                store_bytes=store_bytes,
            )
        return None

    # -- brownout machine ----------------------------------------------------
    def observe_store_write(self, seconds: float) -> None:
        """Feed one store-write duration into the latency EWMA."""
        self.store_write_latency_s = (
            (1.0 - _LATENCY_ALPHA) * self.store_write_latency_s
            + _LATENCY_ALPHA * float(seconds)
        )

    def _pressure(self, backlog: int) -> Optional[str]:
        """Which signal (if any) is past its brownout threshold."""
        if (
            self.brownout_backlog is not None
            and backlog >= self.brownout_backlog
        ):
            return "dispatch-backlog"
        if (
            self.brownout_store_latency_s is not None
            and self.store_write_latency_s >= self.brownout_store_latency_s
        ):
            return "store-latency"
        return None

    def _recovered(self, backlog: int) -> bool:
        """All signals below ``recovery_fraction`` of their thresholds."""
        if self.brownout_backlog is not None and backlog > (
            self.recovery_fraction * self.brownout_backlog
        ):
            return False
        if (
            self.brownout_store_latency_s is not None
            and self.store_write_latency_s
            > self.recovery_fraction * self.brownout_store_latency_s
        ):
            return False
        return True

    def evaluate(self, backlog: int) -> Optional[str]:
        """Advance the state machine; returns "enter"/"exit" on transition."""
        if self.state == READY:
            cause = self._pressure(backlog)
            if cause is not None:
                self.state = BROWNOUT
                self.brownouts += 1
                self._brownout_cause = cause
                self._brownout_since = self.clock()
                return "enter"
            return None
        if self._recovered(backlog):
            self.state = READY
            self._brownout_cause = None
            self._brownout_since = None
            return "exit"
        return None

    # -- reporting -----------------------------------------------------------
    def snapshot(self) -> dict:
        """The ``admission`` section of a HEALTH document."""
        doc = {
            "state": self.state,
            "quota": self.quota.as_dict(),
            "busy_refusals": self.busy_refusals,
            "refusals": dict(sorted(self.refusals_by_reason.items())),
            "brownouts": self.brownouts,
            "store_write_latency_s": round(self.store_write_latency_s, 6),
            "thresholds": {
                "backlog": self.brownout_backlog,
                "store_latency_s": self.brownout_store_latency_s,
                "recovery_fraction": self.recovery_fraction,
            },
        }
        if self.state == BROWNOUT:
            doc["brownout_cause"] = self._brownout_cause
            if self._brownout_since is not None:
                doc["brownout_age_s"] = round(
                    max(0.0, self.clock() - self._brownout_since), 3
                )
        return doc


__all__ = [
    "AdmissionController",
    "BROWNOUT",
    "DRAINING",
    "READY",
    "TenantQuota",
]
