"""Golden event-trace recording for the DES engine.

The performance work on the engine (deque queues, lazy-cancellation
tombstones, inlined event loop, model-layer caching) must keep every
experiment bit-identical. These helpers hash the complete
``(time, priority, event-type)`` schedule/step stream of representative
runs through a :class:`~repro.des.probe.Probe`; the committed digests in
``golden/trace_digests.json`` were recorded on the pre-optimization
engine, so ``tests/des/test_golden_trace.py`` fails if any data-structure
swap moves even one event.

Re-record an entry (only when *intentionally* changing workload
structure) by name; the command refuses if any other entry moved::

    PYTHONPATH=src python tests/des/goldens.py --write pattern1_lockstep
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from contextlib import contextmanager

from repro.des import Container, Environment, Interrupt, Resource, Store
from repro.des.probe import Probe

GOLDEN_PATH = pathlib.Path(__file__).parent / "golden" / "trace_digests.json"


class TraceRecorder(Probe):
    """Hashes the full schedule/step stream of one simulation run."""

    def __init__(self) -> None:
        self._sha = hashlib.sha256()
        self.schedules = 0
        self.steps = 0

    def on_schedule(self, env, event, time, priority) -> None:
        self._sha.update(f"+ {time!r} {priority} {type(event).__name__}\n".encode())
        self.schedules += 1

    def on_step(self, env, time, event) -> None:
        self._sha.update(f"s {time!r} {type(event).__name__}\n".encode())
        self.steps += 1

    def digest(self) -> dict:
        return {
            "sha256": self._sha.hexdigest(),
            "schedules": self.schedules,
            "steps": self.steps,
        }


@contextmanager
def probed_pattern_environment(probe: Probe):
    """Patch the pattern runners' ``Environment`` to attach ``probe``."""
    import repro.workloads.patterns as patterns

    original = patterns.Environment

    def factory(*args, **kwargs):
        kwargs.setdefault("probe", probe)
        return original(*args, **kwargs)

    patterns.Environment = factory
    try:
        yield
    finally:
        patterns.Environment = original


@contextmanager
def one_rank_per_group():
    """Patch the pattern runners to give every simulation and trainer
    rank its own process, whatever the inputs prove about lock-step."""
    import repro.workloads.patterns as patterns

    original = patterns._rank_groups
    patterns._rank_groups = lambda ranks, *args, **kwargs: [[rank] for rank in ranks]
    try:
        yield
    finally:
        patterns._rank_groups = original


def record_pattern1_lockstep() -> dict:
    """Quick Pattern 1 (one-to-one) run on the dragon model."""
    from repro.experiments.common import backend_models, pattern1_context
    from repro.workloads import OneToOneConfig, run_one_to_one

    recorder = TraceRecorder()
    with probed_pattern_environment(recorder):
        run_one_to_one(
            backend_models()["dragon"],
            OneToOneConfig(train_iterations=150, seed=0),
            ctx=pattern1_context(8),
        )
    return recorder.digest()


def record_pattern2_lockstep() -> dict:
    """Quick Pattern 2 (many-to-one) run on the redis model."""
    from repro.experiments.common import backend_models
    from repro.workloads import ManyToOneConfig, run_many_to_one

    recorder = TraceRecorder()
    with probed_pattern_environment(recorder):
        run_many_to_one(
            backend_models()["redis"],
            ManyToOneConfig(n_simulations=7, train_iterations=60, seed=0),
        )
    return recorder.digest()


def record_pattern1() -> dict:
    """The Pattern 1 run with one process per simulation rank: the
    program the pre-optimization digest was recorded on."""
    with one_rank_per_group():
        return record_pattern1_lockstep()


def record_pattern2() -> dict:
    """The Pattern 2 run with one process per producer."""
    with one_rank_per_group():
        return record_pattern2_lockstep()


def record_substrate_mix() -> dict:
    """Synthetic run hammering every substrate code path the perf work
    touches: FIFO resource grants, request cancellation, filtered and
    plain store gets, container put/get, interrupts, and conditions."""
    recorder = TraceRecorder()
    env = Environment(probe=recorder)
    res = Resource(env, capacity=2)
    store = Store(env, capacity=8)
    tank = Container(env, capacity=100.0, init=10.0)

    def producer(env, k):
        for i in range(30):
            yield env.timeout(0.1 + 0.01 * k)
            yield store.put((k, i))

    def filtered_consumer(env, k):
        for _ in range(25):
            yield store.get(filter=lambda item, k=k: item[0] == k)
            yield env.timeout(0.05)

    def plain_consumer(env):
        for _ in range(25):
            yield store.get()
            yield env.timeout(0.03)

    def resource_user(env, k):
        # Races a grant against a timeout; the loser path cancels the
        # pending request (tombstone semantics under the deque rewrite).
        for _ in range(15):
            req = res.request()
            got = yield req | env.timeout(0.2)
            if req in got:
                yield env.timeout(0.1 + 0.003 * k)
                res.release(req)
            else:
                req.cancel()
                yield env.timeout(0.01)

    def tank_user(env):
        for _ in range(10):
            yield tank.put(5.0)
            yield env.timeout(0.07)
            yield tank.get(3.0)

    def victim(env):
        try:
            yield env.timeout(1000.0)
        except Interrupt:
            yield env.timeout(0.5)

    def interrupter(env, target):
        yield env.timeout(1.5)
        target.interrupt("poke")

    def joiner(env, procs):
        yield env.all_of(procs)

    procs = []
    for k in range(3):
        procs.append(env.process(producer(env, k)))
        procs.append(env.process(filtered_consumer(env, k)))
    procs.append(env.process(plain_consumer(env)))
    for k in range(6):
        procs.append(env.process(resource_user(env, k)))
    procs.append(env.process(tank_user(env)))
    target = env.process(victim(env))
    env.process(interrupter(env, target))
    env.process(joiner(env, procs))
    env.run(until=50.0)
    return recorder.digest()


RECORDERS = {
    "pattern1": record_pattern1,
    "pattern1_lockstep": record_pattern1_lockstep,
    "pattern2": record_pattern2,
    "pattern2_lockstep": record_pattern2_lockstep,
    "substrate_mix": record_substrate_mix,
}


def record_all() -> dict[str, dict]:
    return {name: recorder() for name, recorder in RECORDERS.items()}


def rewritten(golden: dict[str, dict], current: dict[str, dict], names: list[str]) -> dict[str, dict]:
    """``golden`` with the entries in ``names`` taken from ``current``.

    Re-recording is deliberate and per entry: an entry that moved
    without being named is a regression, not something to write over.
    """
    unknown = sorted(set(names) - set(RECORDERS))
    if unknown:
        raise SystemExit(f"no such golden: {', '.join(unknown)} (have {', '.join(RECORDERS)})")
    moved = sorted(
        name for name in golden if name not in names and current.get(name) != golden[name]
    )
    if moved:
        raise SystemExit(
            f"refusing to write: {', '.join(moved)} moved too and "
            f"{'was' if len(moved) == 1 else 'were'} not named"
        )
    return {**golden, **{name: current[name] for name in names}}


def main() -> None:  # pragma: no cover - regeneration entry point
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--write", nargs="+", metavar="NAME",
        help="re-record these entries of the golden file; fails if any other entry moved",
    )
    args = parser.parse_args()
    digests = record_all()
    if args.write:
        digests = rewritten(json.loads(GOLDEN_PATH.read_text())["digests"], digests, args.write)
    text = json.dumps({"format": 1, "digests": digests}, indent=2, sort_keys=True) + "\n"
    if args.write:
        GOLDEN_PATH.write_text(text)
        print(f"wrote {GOLDEN_PATH}")
    print(text, end="")


if __name__ == "__main__":  # pragma: no cover
    main()
