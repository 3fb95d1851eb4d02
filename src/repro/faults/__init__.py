"""Fault injection: deterministic chaos for coupled AI-simulation runs.

The subsystem has three pieces:

* :mod:`repro.faults.plan` — *what* to break: scheduled and stochastic
  (seeded Poisson) fault specs, serialisable to JSON;
* :mod:`repro.faults.state` — the live fault switchboard the transport
  layer consults on every operation;
* :mod:`repro.faults.injector` — the DES driver that opens and closes
  fault windows at their planned virtual times;
* :mod:`repro.faults.netproxy` — a seeded TCP relay that injects the
  same fault vocabulary on real sockets for the distributed sweep.

Resilience policies that *react* to these faults (retry, backoff,
circuit breaking, quorum reads) live in
:mod:`repro.transport.resilience`.

Names resolve on first use (see :mod:`repro`): a simulated run does not
load the TCP relay.
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "ChaosProxy": ".netproxy",
    "FaultInjector": ".injector",
    "FaultKind": ".plan",
    "FaultPlan": ".plan",
    "FaultSpec": ".plan",
    "FaultState": ".state",
    "InjectedFault": ".injector",
    "NetChaos": ".netproxy",
    "StochasticFaultSpec": ".plan",
    "merge_plans": ".plan",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
