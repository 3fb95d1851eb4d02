"""Coupled inference pattern: latency-limited AI-in-the-loop simulation.

The paper's introduction names the third common coupling besides online
training: "inference workloads can be latency limited, with the cost of
data transfer dominating over the computational one" (§1). This pattern
models it: every simulation iteration sends the current state to an AI
inference server through the staging backend and **blocks** on the
response before continuing (e.g., a learned turbulence closure or a
steering decision).

Per iteration: sim computes; stages the request; the AI polls, reads,
infers, stages the response; the sim polls and reads it. The round trip
costs four transport operations plus two poll loops — which is why
backend latency (not bandwidth) dominates at the small message sizes
typical of inference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.distributions import Constant, Distribution
from repro.des import Environment
from repro.des.rng import RngRegistry
from repro.errors import ConfigError
from repro.telemetry.events import EventKind, EventLog
from repro.transport.models import BackendModel, TransportOpContext
from repro.transport.simstore import SimDataStore, SimStagingArea


@dataclass
class InferenceLoopConfig:
    """Knobs of the coupled-inference mini-app."""

    iterations: int = 100
    sim_iter_time: Distribution = field(default_factory=lambda: Constant(0.03147))
    infer_time: Distribution = field(default_factory=lambda: Constant(0.002))
    request_nbytes: float = 0.1e6
    response_nbytes: float = 0.01e6
    poll_interval: float = 0.5e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.iterations < 0:
            raise ConfigError("iterations must be >= 0")
        if self.request_nbytes < 0 or self.response_nbytes < 0:
            raise ConfigError("message sizes must be >= 0")
        if self.poll_interval <= 0:
            raise ConfigError("poll_interval must be positive")


@dataclass
class InferenceResult:
    log: EventLog
    makespan: float
    iterations: int
    mean_round_trip: float
    transport_fraction: float


def run_inference_loop(
    model: BackendModel,
    config: InferenceLoopConfig | None = None,
    ctx: TransportOpContext | None = None,
) -> InferenceResult:
    """Simulate the blocking inference round trip; returns latency stats."""
    config = config or InferenceLoopConfig()
    ctx = ctx or TransportOpContext(local=True, clients_per_server=12)
    env = Environment()
    log = EventLog()
    area = SimStagingArea()
    rngs = RngRegistry(config.seed)
    round_trips: list[float] = []

    sim_store = SimDataStore(env, model, area, component="sim", event_log=log, default_ctx=ctx)
    ai_store = SimDataStore(env, model, area, component="infer", event_log=log, default_ctx=ctx)
    done = {"count": 0}

    def simulation():
        rng = rngs.stream("sim")
        for i in range(config.iterations):
            start = env.now
            yield max(0.0, config.sim_iter_time.sample(rng))
            log.add("sim", EventKind.COMPUTE, start, env.now - start)
            rt_start = env.now
            yield from sim_store.stage_write(f"req{i}", config.request_nbytes)
            while True:
                present = yield from sim_store.poll_staged_data(f"resp{i}")
                if present:
                    break
                yield config.poll_interval
            yield from sim_store.stage_read(f"resp{i}")
            round_trips.append(env.now - rt_start)
            done["count"] += 1

    def inference_server():
        rng = rngs.stream("infer")
        for i in range(config.iterations):
            while True:
                present = yield from ai_store.poll_staged_data(f"req{i}")
                if present:
                    break
                yield config.poll_interval
            yield from ai_store.stage_read(f"req{i}")
            start = env.now
            yield max(0.0, config.infer_time.sample(rng))
            log.add("infer", EventKind.COMPUTE, start, env.now - start)
            yield from ai_store.stage_write(f"resp{i}", config.response_nbytes)

    env.process(simulation(), name="sim")
    env.process(inference_server(), name="infer")
    env.run()

    makespan = log.makespan() if len(log) else 0.0
    compute = sum(log.filter(component="sim", kind=EventKind.COMPUTE).durations())
    infer = sum(log.filter(component="infer", kind=EventKind.COMPUTE).durations())
    mean_rt = sum(round_trips) / len(round_trips) if round_trips else 0.0
    transport = max(0.0, sum(round_trips) - infer)
    total_loop = compute + sum(round_trips)
    return InferenceResult(
        log=log,
        makespan=makespan,
        iterations=done["count"],
        mean_round_trip=mean_rt,
        transport_fraction=transport / total_loop if total_loop > 0 else 0.0,
    )
