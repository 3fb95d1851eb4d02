"""A from-scratch discrete-event simulation (DES) engine.

This subpackage provides the substrate on which the simulated Aurora
machine (:mod:`repro.cluster`) and the simulated execution mode of
SimAI-Bench mini-apps run. The API intentionally mirrors the classic
process-based DES style (generators yielding delays and events)::

    from repro.des import Environment

    env = Environment()

    def clock(env, tick):
        while True:
            yield tick  # or ``yield env.timeout(tick)`` for an event object
            print("tick", env.now)

    env.process(clock(env, 1.0))
    env.run(until=3.5)
"""

from repro.des.calendar import CalendarQueue
from repro.des.core import (
    CORES,
    EmptySchedule,
    Environment,
    Process,
    default_core,
    set_default_core,
)
from repro.des.probe import (
    CountingProbe,
    MultiProbe,
    PeriodicSampler,
    Probe,
    attach_probe,
)
from repro.des.events import (
    AllOf,
    AnyOf,
    Condition,
    ConditionValue,
    Event,
    Interrupt,
    Timeout,
)
from repro.des.resources import Container, Request, Resource, Store
from repro.des.rng import RngRegistry

__all__ = [
    "AllOf",
    "AnyOf",
    "CORES",
    "CalendarQueue",
    "Condition",
    "ConditionValue",
    "Container",
    "CountingProbe",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "MultiProbe",
    "PeriodicSampler",
    "Probe",
    "Process",
    "Request",
    "Resource",
    "RngRegistry",
    "Store",
    "Timeout",
    "attach_probe",
    "default_core",
    "set_default_core",
]
