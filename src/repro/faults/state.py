"""Live fault state: the injector writes it, the transport layer reads it.

:class:`FaultState` is the meeting point between the DES-driven
:class:`~repro.faults.injector.FaultInjector` (which applies and reverts
:class:`~repro.faults.plan.FaultSpec` windows) and the simulated
transport (:class:`~repro.transport.simstore.SimDataStore`), which
consults it on every operation:

* ``failure_for(component, backend)`` — the typed exception an op must
  raise right now (backend crash, partition), or None;
* ``delay_factor(backend)`` — multiplicative slowdown from link
  degradation and OST/MDS stalls;
* ``drops_message()`` / ``corrupts_message(key)`` — seeded Bernoulli
  draws, made *only* while a matching fault window is open, so healthy
  runs consume no randomness and stay bit-identical.

Overlapping windows of the same kind are reference-counted (crashes,
partitions) or stacked multiplicatively (slowdowns), so any revert order
is correct.
"""

from __future__ import annotations

from collections import Counter
from typing import Generator, Optional

import numpy as np

from repro.des.rng import _derive_seed
from repro.errors import BackendUnavailableError, FaultPlanError
from repro.faults.plan import FaultKind, FaultSpec

#: Simulated seconds a client needs to *notice* an outage (connect/timeout).
DEFAULT_DETECT_SECONDS = 0.05
#: Simulated seconds between "is my node back?" checks by crashed components.
DEFAULT_RESTART_POLL = 0.05


class FaultState:
    """Mutable view of which faults are active right now."""

    def __init__(
        self,
        seed: int = 0,
        detect_seconds: float = DEFAULT_DETECT_SECONDS,
        restart_poll: float = DEFAULT_RESTART_POLL,
    ) -> None:
        self.detect_seconds = detect_seconds
        self.restart_poll = restart_poll
        self._rng = np.random.default_rng(_derive_seed(seed, "fault-state"))
        self._backend_down = 0  # reference count of open backend-crash windows
        self._down_components: Counter[str] = Counter()
        self._partitioned: Counter[str] = Counter()
        self._slowdowns: list[tuple[FaultKind, float]] = []
        self._drop_probs: list[float] = []
        self._corrupt_probs: list[float] = []
        self._corrupt_keys: set[str] = set()
        # Observability counters (reported through PatternResult.resilience).
        self.drops = 0
        self.corruptions = 0

    # -- applied by the injector -------------------------------------------
    def apply(self, spec: FaultSpec) -> None:
        """Open one fault window (crashes count, slowdowns stack)."""
        kind = spec.kind
        if kind is FaultKind.BACKEND_CRASH:
            self._backend_down += 1
        elif kind is FaultKind.NODE_CRASH:
            self._down_components[spec.target] += 1
        elif kind is FaultKind.PARTITION:
            self._partitioned[spec.target] += 1
        elif kind in (FaultKind.LINK_DEGRADE, FaultKind.OST_STALL, FaultKind.MDS_STALL):
            self._slowdowns.append((kind, spec.severity))
        elif kind is FaultKind.MESSAGE_DROP:
            self._drop_probs.append(spec.severity)
        elif kind is FaultKind.MESSAGE_CORRUPT:
            self._corrupt_probs.append(spec.severity)
        else:  # pragma: no cover - enum is exhaustive
            raise FaultPlanError(f"unhandled fault kind {kind}")

    def revert(self, spec: FaultSpec) -> None:
        """Close a window opened by :meth:`apply`; any order is safe."""
        kind = spec.kind
        if kind is FaultKind.BACKEND_CRASH:
            self._backend_down = max(0, self._backend_down - 1)
        elif kind is FaultKind.NODE_CRASH:
            self._down_components[spec.target] -= 1
            if self._down_components[spec.target] <= 0:
                del self._down_components[spec.target]
        elif kind is FaultKind.PARTITION:
            self._partitioned[spec.target] -= 1
            if self._partitioned[spec.target] <= 0:
                del self._partitioned[spec.target]
        elif kind in (FaultKind.LINK_DEGRADE, FaultKind.OST_STALL, FaultKind.MDS_STALL):
            self._slowdowns.remove((kind, spec.severity))
        elif kind is FaultKind.MESSAGE_DROP:
            self._drop_probs.remove(spec.severity)
        elif kind is FaultKind.MESSAGE_CORRUPT:
            self._corrupt_probs.remove(spec.severity)

    # -- consulted by the transport layer ----------------------------------
    @property
    def backend_down(self) -> bool:
        """True while at least one backend-crash window is open."""
        return self._backend_down > 0

    def is_component_down(self, component: str) -> bool:
        """True while ``component``'s node is crashed."""
        return component in self._down_components

    def is_partitioned(self, component: str) -> bool:
        """True while ``component`` is cut off from the backend."""
        return component in self._partitioned

    def failure_for(
        self, component: str, backend: str
    ) -> Optional[BackendUnavailableError]:
        """The exception a transport op from ``component`` hits now, if any."""
        if self._backend_down:
            return BackendUnavailableError(
                f"backend {backend!r} is down (injected fault)"
            )
        if component in self._partitioned:
            return BackendUnavailableError(
                f"component {component!r} is partitioned from backend {backend!r}"
            )
        return None

    def delay_factor(self, backend: str) -> float:
        """Multiplicative op-time slowdown for ``backend`` right now."""
        factor = 1.0
        for kind, severity in self._slowdowns:
            if kind is FaultKind.LINK_DEGRADE:
                factor *= severity
            elif backend == "filesystem":  # OST/MDS stalls only hit Lustre
                factor *= severity
        return factor

    def _combined(self, probs: list[float]) -> float:
        """Probability that at least one of the open windows fires."""
        p_ok = 1.0
        for p in probs:
            p_ok *= 1.0 - p
        return 1.0 - p_ok

    def drops_message(self) -> bool:
        """Seeded draw: is this write silently lost in transit?"""
        if not self._drop_probs:
            return False
        dropped = bool(self._rng.random() < self._combined(self._drop_probs))
        if dropped:
            self.drops += 1
        return dropped

    def corrupts_message(self, key: str) -> bool:
        """Seeded draw: does this staged payload get corrupted?"""
        if not self._corrupt_probs:
            return False
        corrupted = bool(self._rng.random() < self._combined(self._corrupt_probs))
        if corrupted:
            self._corrupt_keys.add(key)
            self.corruptions += 1
        return corrupted

    def consume_corruption(self, key: str) -> bool:
        """True (once) when ``key``'s payload was corrupted.

        The flag clears on consumption: a retried read models a re-fetch
        that received an intact copy.
        """
        if key in self._corrupt_keys:
            self._corrupt_keys.discard(key)
            return True
        return False

    # -- used by workloads ---------------------------------------------------
    def wait_until_up(self, env, component: str, should_abort=None) -> Generator:
        """DES generator: idle (in restart_poll steps) while crashed.

        ``should_abort`` (a nullary predicate) lets the caller bail out of
        a permanent crash once the rest of the workload has finished —
        otherwise a component that never restarts would keep the event
        calendar alive forever. Returns the simulated seconds spent down.
        """
        start = env.now
        while self.is_component_down(component):
            if should_abort is not None and should_abort():
                break
            yield self.restart_poll
        return env.now - start
