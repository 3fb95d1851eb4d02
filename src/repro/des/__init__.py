"""A from-scratch discrete-event simulation (DES) engine.

This subpackage provides the clock that the simulated pattern runs
(:mod:`repro.workloads.patterns`) charge their modeled transport times
to, and the ``Resource``/``Store`` primitives of the DES reference
models in :mod:`repro.cluster`. The API intentionally mirrors the
classic process-based DES style (generators yielding delays and
events)::

    from repro.des import Environment

    env = Environment()

    def clock(env, tick):
        while True:
            yield tick  # or ``yield env.timeout(tick)`` for an event object
            print("tick", env.now)

    env.process(clock(env, 1.0))
    env.run(until=3.5)

Names resolve on first use (see :mod:`repro`).
"""

import importlib

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    "AllOf": ".events",
    "AnyOf": ".events",
    "CORES": ".core",
    "CalendarQueue": ".calendar",
    "Condition": ".events",
    "ConditionValue": ".events",
    "Container": ".resources",
    "CountingProbe": ".probe",
    "EmptySchedule": ".core",
    "Environment": ".core",
    "Event": ".events",
    "Interrupt": ".events",
    "MultiProbe": ".probe",
    "PeriodicSampler": ".probe",
    "Probe": ".probe",
    "Process": ".core",
    "Request": ".resources",
    "Resource": ".resources",
    "RngRegistry": ".rng",
    "Store": ".resources",
    "Timeout": ".events",
    "attach_probe": ".probe",
    "default_core": ".core",
    "set_default_core": ".core",
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(_EXPORTS[name], __name__), name)
    globals()[name] = value
    return value
