"""DES implementations of the paper's two workflow patterns.

These run the *simulated* (Aurora-scale) mode: component compute time is
sampled from configured distributions and charged to the DES clock, and
data transport goes through a :class:`~repro.transport.simstore.
SimDataStore` whose backend model carries the scale context. Real-mode
equivalents (threads + real stores) live in :mod:`repro.workloads.realrun`.

Pattern 1 — one-to-one (§4.1): a simulation and an AI trainer co-located
on each node. The simulation stages a snapshot (``arrays_per_snapshot``
staged values) every ``write_interval`` iterations; the trainer checks for
new snapshots every ``read_interval`` training iterations and ingests
everything pending (fully asynchronous). When the trainer completes
``train_iterations`` it *steers the workflow*, instructing the simulation
to stop. Ranks on other nodes behave statistically identically, so one
node's rank pair is simulated per rank index and backend-scale effects
enter through the model's :class:`~repro.transport.models.
TransportOpContext`.

Pattern 2 — many-to-one (§4.2): ``n_simulations`` producers (one per
node), a single trainer on its own node. Every producer writes every
``write_interval`` iterations; every ``read_interval`` training
iterations the trainer **blocks** until it has read the update from every
producer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from repro.config.distributions import Constant, Distribution
from repro.des import Environment
from repro.des.rng import RngRegistry
from repro.errors import ConfigError, KeyNotStagedError, TransportError
from repro.faults import FaultInjector, FaultPlan, FaultState
from repro.telemetry.events import EventKind, EventLog
from repro.telemetry.hub import Telemetry
from repro.transport.models import BackendModel, TransportOpContext
from repro.transport.resilience import (
    ResilienceConfig,
    ResilienceStats,
    ResilientSimDataStore,
)
from repro.transport.simstore import (
    SimDataStore,
    SimStagingArea,
    poll_staged_group,
    stage_read_group,
    stage_write_group,
)

#: Calibrated iteration times from the paper's production profiling (§4.1.1).
NEKRS_ITER_TIME = 0.03147
NEKRS_MEASURED_MEAN = 0.0312
NEKRS_MEASURED_STD = 0.0273
GNN_ITER_TIME = 0.061
GNN_MEASURED_MEAN = 0.0611
GNN_MEASURED_STD = 0.1
#: The production workflow moves 1.2 MB per rank per staging op (§4.1.2).
DEFAULT_SNAPSHOT_NBYTES = 1.2e6
#: Component initialization spans (gray areas of Fig 2).
SIM_INIT_TIME = 2.0
AI_INIT_TIME = 4.0


def _check_snapshot_nbytes(nbytes: float) -> None:
    """A staged size is a finite number of bytes, zero or more."""
    if not (math.isfinite(nbytes) and nbytes >= 0):
        raise ConfigError(f"snapshot_nbytes must be finite and >= 0, got {nbytes!r}")


@dataclass
class OneToOneConfig:
    """Knobs of the pattern-1 mini-app."""

    sim_iter_time: Distribution = field(default_factory=lambda: Constant(NEKRS_ITER_TIME))
    ai_iter_time: Distribution = field(default_factory=lambda: Constant(GNN_ITER_TIME))
    write_interval: int = 100
    read_interval: int = 10
    train_iterations: int = 5000
    snapshot_nbytes: float = DEFAULT_SNAPSHOT_NBYTES
    arrays_per_snapshot: int = 2
    ranks_per_component: int = 6  # 6 sim + 6 AI tiles per Aurora node
    sim_init_time: float = SIM_INIT_TIME
    ai_init_time: float = AI_INIT_TIME
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.write_interval, self.read_interval, self.arrays_per_snapshot) < 1:
            raise ConfigError("intervals and arrays_per_snapshot must be >= 1")
        if self.train_iterations < 0:
            raise ConfigError("train_iterations must be >= 0")
        if self.ranks_per_component < 1:
            raise ConfigError("ranks_per_component must be >= 1")
        _check_snapshot_nbytes(self.snapshot_nbytes)


@dataclass
class PatternResult:
    """What a pattern run produces.

    ``resilience`` is None on a healthy run; under an active fault plan
    (or explicit resilience config) it carries the injector summary,
    retry/recovery stats, and the degradation counters (lost snapshots,
    missed reads, quorum misses, staleness violations, downtime).
    """

    log: EventLog
    makespan: float
    sim_iterations: int
    train_iterations: int
    snapshots_written: int
    snapshots_read: int
    resilience: Optional[dict] = None


class _StopFlag:
    """The steering signal: AI tells the simulation to stop (§4.1)."""

    def __init__(self) -> None:
        self.stopped = False

    def set(self) -> None:
        self.stopped = True


def _bind_telemetry(telemetry: Optional[Telemetry], env: Environment, area: SimStagingArea):
    """Attach the engine sampler and the staging-memory gauge source."""
    if telemetry is None:
        return
    sampler = telemetry.bind_environment(env)
    sampler.add_source("staging.bytes", lambda: area.staged_bytes)
    sampler.add_source("staging.keys", lambda: len(area))


def _run(env: Environment, log: EventLog, model: BackendModel, harness: "_FaultHarness",
         telemetry: Optional[Telemetry]):
    """Run the simulation; the hub then derives its telemetry from the
    run's records, also when the run raised."""
    try:
        env.run()
    finally:
        if telemetry is not None:
            telemetry.record_run(
                log, model.name,
                resilience=() if harness.stats is None else (harness.stats,),
                injector=harness.injector,
                quorum_misses=harness.quorum_misses,
            )


class QuorumMiss(NamedTuple):
    """One Pattern 2 update the trainer went on without a quorum of."""

    time: float
    track: str  # the trainer
    update: int
    arrived: int
    needed: int


class _FaultHarness:
    """Per-run fault/resilience wiring shared by both patterns.

    Inactive — no enabled fault plan and no explicit resilience config —
    it is pure pass-through: :meth:`wrap` returns the store unchanged and
    every check short-circuits, so the run's event sequence stays
    bit-identical to a build without the fault subsystem.
    """

    def __init__(
        self,
        env: Environment,
        log: EventLog,
        rngs: RngRegistry,
        fault_plan: Optional[FaultPlan],
        resilience: Optional[ResilienceConfig],
    ) -> None:
        self.env = env
        self.rngs = rngs
        plan_active = fault_plan is not None and fault_plan.is_active
        self.active = plan_active or resilience is not None
        self.state = FaultState(seed=fault_plan.seed) if plan_active else None
        self.config = resilience or (ResilienceConfig() if self.active else None)
        self.stats = ResilienceStats() if self.active else None
        self.quorum_misses: list[QuorumMiss] = []
        self.injector: Optional[FaultInjector] = None
        if plan_active:
            self.injector = FaultInjector(env, fault_plan, self.state, event_log=log)

    def start(self) -> None:
        if self.injector is not None:
            self.injector.start()

    def wrap(
        self, store: SimDataStore
    ) -> Union[SimDataStore, ResilientSimDataStore]:
        if not self.active:
            return store
        return ResilientSimDataStore(
            store,
            policy=self.config.policy,
            breaker=self.config.make_breaker(lambda: self.env.now),
            rng=self.rngs.stream(f"resilience:{store.component}:{store.rank}"),
            stats=self.stats,
        )

    @property
    def staleness_bound(self) -> float:
        return self.config.staleness_bound if self.config is not None else float("inf")

    @property
    def quorum(self) -> float:
        return self.config.quorum if self.config is not None else 1.0

    def report(self, extra: dict) -> Optional[dict]:
        """The PatternResult.resilience payload (None when inactive)."""
        if not self.active:
            return None
        out: dict = {"stats": self.stats.as_dict()}
        if self.injector is not None:
            out["faults"] = self.injector.summary()
        out.update(extra)
        return out


#: Every kind but FAULT: fault windows may outlast the run they disturb.
_WORKLOAD_KINDS = frozenset(EventKind) - {EventKind.FAULT}


def _workload_makespan(log: EventLog) -> float:
    """Makespan over workload records, in one pass over the log."""
    return log.makespan(kinds=_WORKLOAD_KINDS)


def _rank_groups(ranks, iter_time: Distribution, harness, contiguous: bool = True) -> list:
    """The ranks (or reader lanes) of one component, split into groups
    that are one process each.

    All ranks form one group when lock-step is provable from the inputs:
    a deterministic iteration time, no fault or resilience wiring, and
    calendar entries the caller knows are ``contiguous`` from the first
    step. Otherwise every rank is its own group. Telemetry never decides:
    traced and untraced runs are the same program until the run ends.
    """
    ranks = list(ranks)
    lockstep = isinstance(iter_time, Constant) and not harness.active and contiguous
    return [ranks] if lockstep and ranks else [[rank] for rank in ranks]


def _sim_ranks(
    env, log, stop, counters, faults, rngs, store, tracks, config,
    columns_for, init_time=None, count_every_write=False,
):
    """One DES process driving a group of simulation ranks in lock-step.

    A step is one sleep for the whole group, then one COMPUTE row per
    ``(component, rank)`` track in rank order; every ``write_interval``
    steps the group stages ``columns_for(ranks, snapshot)``, a list of
    key columns (one key per rank each). Several ranks share a process
    only where :func:`_rank_groups` proved lock-step, and then write
    through :func:`~repro.transport.simstore.stage_write_group` on the
    group's one lead ``store``. A group of one is the general case: its
    own (possibly resilient) store, its own RNG stream, the fault hooks.

    One process emits what N did because the N per-rank calendar entries
    are pushed during one uninterrupted run of pops: they carry
    consecutive sequence numbers at every instant, so any other entry at
    the same timestamp lies wholly before or after the block. Rows,
    publishes, counters and the ``stop`` test keep their order.
    """
    ranks = [rank for _, rank in tracks]
    component = tracks[0][0]  # the fault hooks only ever see a group of one
    leads = ranks[0] == 0  # rank 0 carries the per-run counters
    sole = store if len(tracks) == 1 else None
    sample, write_interval = config.sim_iter_time.sample, config.write_interval
    # A deterministic distribution never draws: no Generator is built for it.
    rng = None if isinstance(config.sim_iter_time, Constant) else rngs.stream(f"sim{ranks[0]}")
    if init_time is not None:
        yield init_time
        if leads:
            log.add(component, EventKind.INIT, 0.0, init_time, 0)
    iteration = snapshot = 0
    while not stop.stopped:
        if faults is not None and faults.is_component_down(component):
            counters["downtime"] += yield from faults.wait_until_up(
                env, component, should_abort=lambda: stop.stopped
            )
            if stop.stopped:
                break
        start = env.now
        iteration += 1
        yield max(0.0, sample(rng))
        log.add_step(tracks, EventKind.COMPUTE, start, env.now - start)
        if leads:
            counters["sim_iters"] += 1
        if iteration % write_interval == 0:
            try:
                if sole is None:
                    yield from stage_write_group(
                        store, tracks, columns_for(ranks, snapshot), config.snapshot_nbytes
                    )
                else:
                    for (key,) in columns_for(ranks, snapshot):
                        yield from sole.stage_write(key, config.snapshot_nbytes)
            except TransportError:
                # Degrade, don't crash: the snapshot is lost, the
                # simulation carries on.
                counters["lost"] += len(tracks)
            else:
                counters["written"] += len(tracks) if count_every_write else leads
            snapshot += 1


def run_one_to_one(
    model: BackendModel,
    config: Optional[OneToOneConfig] = None,
    ctx: Optional[TransportOpContext] = None,
    sim_name: str = "sim",
    ai_name: str = "train",
    telemetry: Optional[Telemetry] = None,
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> PatternResult:
    """Simulate the one-to-one pattern; returns logs and counters.

    Passing a :class:`~repro.telemetry.hub.Telemetry` hub records engine
    gauge series on virtual time (staged bytes, event-queue depth); at
    the end of the run the hub derives the iteration and transport
    spans, their metrics, ``link.occupancy`` and the fault and retry
    markers from the run's records
    (:meth:`~repro.telemetry.hub.Telemetry.record_run`). The workload
    code a traced run executes is the untraced run's.

    An enabled ``fault_plan`` injects the planned faults (node/backend
    crashes, degraded links, drops, corruption) through DES events and
    wraps every store with retry/backoff per ``resilience`` (defaults
    apply when omitted). The workload degrades rather than crashes: the
    simulation skips snapshots it cannot stage (counted as data loss)
    and the trainer tolerates stale data up to
    ``resilience.staleness_bound``, skipping snapshots lost for good.
    With the plan disabled (or None) the run is bit-identical to a
    healthy one.
    """
    config = config or OneToOneConfig()
    ctx = ctx or TransportOpContext(local=True, clients_per_server=12)
    env = Environment()
    log = EventLog()
    area = SimStagingArea()
    _bind_telemetry(telemetry, env, area)
    rngs = RngRegistry(config.seed)
    stop = _StopFlag()
    harness = _FaultHarness(env, log, rngs, fault_plan, resilience)
    # Hot-loop rule: the per-iteration loops below test this once and
    # touch the fault state only behind it.
    faults = harness.state
    counters = {
        "sim_iters": 0,
        "train_iters": 0,
        "written": 0,
        "read": 0,
        "lost": 0,
        "lost_skipped": 0,
        "failed_ingests": 0,
        "staleness": 0,
        "downtime": 0.0,
    }

    def client(component: str, rank: int):
        return harness.wrap(
            SimDataStore(
                env,
                model,
                area,
                component=component,
                rank=rank,
                event_log=log,
                default_ctx=ctx,
                fault_state=faults,
            )
        )

    arrays = range(config.arrays_per_snapshot)

    def snapshot_columns(ranks: list[int], snapshot: int) -> list[list[str]]:
        """A snapshot's keys, one column per array, one key per rank."""
        return [[f"r{rank}_snap{snapshot}_a{a}" for rank in ranks] for a in arrays]

    def sim_ranks(ranks: list[int]):
        return _sim_ranks(
            env, log, stop, counters, faults, rngs,
            client(sim_name, ranks[0]), tuple([(sim_name, rank) for rank in ranks]), config,
            columns_for=snapshot_columns,
            init_time=config.sim_init_time,
        )

    def train_ranks(ranks: list[int]):
        """One DES process driving a group of trainer ranks in lock-step.

        The trainers' mirror of :func:`_sim_ranks`: one sleep and one
        TRAIN step per iteration for the group, and at a read step one
        lock-step poll and read per array column. Several ranks share a
        process only where :func:`_rank_groups` proved it; a group of one
        is the general case (own store, RNG stream and fault hooks).
        """
        store = client(ai_name, ranks[0])  # the group's lead speaks for it
        tracks = tuple([(ai_name, rank) for rank in ranks])
        first = ranks[0]  # the fault hooks only ever see a group of one
        leads = first == 0  # rank 0 carries the per-run counters and steers
        sole = store if len(ranks) == 1 else None
        add_step, sample = log.add_step, config.ai_iter_time.sample
        train, read_interval = EventKind.TRAIN, config.read_interval
        # A deterministic distribution never draws: no Generator is built for it.
        rng = None if isinstance(config.ai_iter_time, Constant) else rngs.stream(f"ai{first}")
        yield config.ai_init_time
        if leads:
            log.add(ai_name, EventKind.INIT, 0.0, config.ai_init_time, 0)
        next_snapshot = 0
        last_ingest = env.now
        for iteration in range(1, config.train_iterations + 1):
            if faults is not None and faults.is_component_down(ai_name):
                counters["downtime"] += yield from faults.wait_until_up(env, ai_name)
            start = env.now
            yield max(0.0, sample(rng))
            add_step(tracks, train, start, env.now - start)
            if leads:
                counters["train_iters"] += 1
            if iteration % read_interval == 0:
                # Asynchronous ingest: drain every snapshot staged so far by
                # the co-located sim rank with the same index. The sim group
                # publishes a key column without yielding, so every rank of a
                # trainer group finds the same thing (the group ops check).
                while True:
                    columns = snapshot_columns(ranks, next_snapshot)
                    try:
                        if sole is None:
                            present = yield from poll_staged_group(store, tracks, columns[0])
                        else:
                            present = yield from sole.poll_staged_data(columns[0][0])
                    except TransportError:
                        counters["failed_ingests"] += len(ranks)
                        break
                    if not present:
                        if faults is not None:
                            # Control-plane peek (no modeled transport op):
                            # when a later snapshot exists, this one was
                            # dropped in a fault window — skip it for good.
                            look = next_snapshot + 1
                            horizon = look + 64
                            while look < horizon and not area.contains(
                                f"r{first}_snap{look}_a0"
                            ):
                                look += 1
                            if look < horizon:
                                counters["lost_skipped"] += look - next_snapshot
                                next_snapshot = look
                                continue
                        break
                    try:
                        if sole is None:
                            yield from stage_read_group(store, tracks, columns)
                        else:
                            for (key,) in columns:
                                yield from sole.stage_read(key)
                    except KeyNotStagedError:
                        # Partially staged snapshot (a write died mid-fault, or
                        # the poll fell between two array writes):
                        # unrecoverable, skip past it.
                        counters["lost_skipped"] += len(ranks)
                        next_snapshot += 1
                        continue
                    except TransportError:
                        counters["failed_ingests"] += len(ranks)
                        break
                    next_snapshot += 1
                    last_ingest = env.now
                    if leads:
                        counters["read"] += 1
                if leads and env.now - last_ingest > harness.staleness_bound:
                    counters["staleness"] += 1
        if leads:
            stop.set()

    harness.start()
    ranks = range(config.ranks_per_component)
    # Per rank, sims and trainers are created interleaved: with equal init
    # times their entries alternate rank by rank at every shared instant
    # and the sims never become one contiguous block. Unequal, the sims
    # wake alone; and only behind one sim process are the trainers created
    # next to each other.
    sim_groups = _rank_groups(
        ranks, config.sim_iter_time, harness,
        contiguous=config.sim_init_time != config.ai_init_time,
    )
    train_groups = _rank_groups(
        ranks, config.ai_iter_time, harness, contiguous=len(sim_groups) == 1
    )
    sim_starts = {group[0]: group for group in sim_groups}
    train_starts = {group[0]: group for group in train_groups}
    for rank in ranks:
        # A group takes its first rank's place in the creation order.
        if rank in sim_starts:
            env.process(sim_ranks(sim_starts[rank]), name=f"{sim_name}{rank}")
        if rank in train_starts:
            env.process(train_ranks(train_starts[rank]), name=f"{ai_name}{rank}")
    _run(env, log, model, harness, telemetry)

    return PatternResult(
        log=log,
        makespan=_workload_makespan(log),
        sim_iterations=counters["sim_iters"],
        train_iterations=counters["train_iters"],
        snapshots_written=counters["written"],
        snapshots_read=counters["read"],
        resilience=harness.report(
            {
                "lost_snapshots": counters["lost"],
                "skipped_snapshots": counters["lost_skipped"],
                "failed_ingests": counters["failed_ingests"],
                "staleness_violations": counters["staleness"],
                "downtime_seconds": counters["downtime"],
            }
        ),
    )


@dataclass
class ManyToOneConfig:
    """Knobs of the pattern-2 mini-app."""

    n_simulations: int = 7  # producers (paper: node count - 1)
    sim_iter_time: Distribution = field(default_factory=lambda: Constant(NEKRS_ITER_TIME))
    ai_iter_time: Distribution = field(default_factory=lambda: Constant(GNN_ITER_TIME))
    write_interval: int = 10
    read_interval: int = 10
    train_iterations: int = 2500
    snapshot_nbytes: float = DEFAULT_SNAPSHOT_NBYTES
    reader_lanes: int = 12  # the AI node's 12 tiles read concurrently
    #: Simulated seconds a reader lane waits for one producer's update
    #: before giving up on it. Bounds the previously unbounded re-poll
    #: loop; generous enough that healthy runs never hit it.
    poll_timeout: float = 300.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_simulations < 1:
            raise ConfigError("need at least one simulation component")
        if min(self.write_interval, self.read_interval, self.reader_lanes) < 1:
            raise ConfigError("intervals and reader_lanes must be >= 1")
        if self.train_iterations < 0:
            raise ConfigError("train_iterations must be >= 0")
        if self.poll_timeout <= 0:
            raise ConfigError("poll_timeout must be positive")
        _check_snapshot_nbytes(self.snapshot_nbytes)


def run_many_to_one(
    model: BackendModel,
    config: Optional[ManyToOneConfig] = None,
    write_ctx: Optional[TransportOpContext] = None,
    read_ctx: Optional[TransportOpContext] = None,
    ai_name: str = "train",
    telemetry: Optional[Telemetry] = None,
    fault_plan: Optional[FaultPlan] = None,
    resilience: Optional[ResilienceConfig] = None,
) -> PatternResult:
    """Simulate the many-to-one pattern.

    The trainer blocks at every update until data from *all* producers for
    that update has arrived (§4.2), draining reads over ``reader_lanes``
    concurrent lanes. Where the producers provably publish in lock-step
    the lanes of an ingest are one process that reads a key column per
    step, otherwise one process each; the records are the same.
    ``telemetry`` behaves as in :func:`run_one_to_one`.

    Each lane's wait is bounded by ``config.poll_timeout``; under an
    active ``fault_plan`` the trainer proceeds when at least
    ``resilience.quorum`` of the producers' updates arrived, counting the
    rest as missed reads instead of blocking forever on a dead producer.
    A ``model`` that cannot serve ``read_ctx`` at all (node-local staging
    read from another node) is a :class:`ConfigError` before the clock
    starts.
    """
    config = config or ManyToOneConfig()
    write_ctx = write_ctx or TransportOpContext(local=True, clients_per_server=12)
    read_ctx = read_ctx or TransportOpContext(
        local=False,
        fan_in=config.n_simulations,
        concurrent_peers=min(config.reader_lanes, config.n_simulations),
        concurrent_clients=config.n_simulations + 1,
    )
    try:
        # A cost model is a pure function of size and context: a context
        # it refuses for one read it refuses for every read, so refuse
        # the run instead of logging nothing but missed reads.
        model.read_time(0.0, read_ctx)
    except TransportError as exc:
        raise ConfigError(
            f"backend {model.name!r} cannot serve the trainer's reads: {exc}"
        ) from None
    env = Environment()
    log = EventLog()
    area = SimStagingArea()
    _bind_telemetry(telemetry, env, area)
    rngs = RngRegistry(config.seed)
    stop = _StopFlag()
    harness = _FaultHarness(env, log, rngs, fault_plan, resilience)
    # Hot-loop rule: the per-iteration loops below test this once and
    # touch the fault state only behind it.
    faults = harness.state
    counters = {
        "sim_iters": 0,
        "train_iters": 0,
        "written": 0,
        "read": 0,
        "lost": 0,
        "missed": 0,
        "downtime": 0.0,
    }
    quorum_needed = math.ceil(harness.quorum * config.n_simulations)

    def update_keys(prefixes: list[str], update: int) -> list[str]:
        """``sim{index}_update{update}`` for each producer's prefix."""
        suffix = str(update)
        return [prefix + suffix for prefix in prefixes]

    def producers(indexes: list[int]):
        # One store per group: its lead speaks for every producer of it.
        store = harness.wrap(
            SimDataStore(
                env,
                model,
                area,
                component=f"sim{indexes[0]}",
                rank=indexes[0],
                event_log=log,
                default_ctx=write_ctx,
                fault_state=faults,
            )
        )
        prefixes = [f"sim{index}_update" for index in indexes]
        return _sim_ranks(
            env, log, stop, counters, faults, rngs,
            store, tuple([(f"sim{index}", index) for index in indexes]), config,
            columns_for=lambda _, update: [update_keys(prefixes, update)],
            count_every_write=True,
        )

    #: The trainer's tracks for a lane group's key column, one tuple per
    #: column length, so every step of every ingest logs the same object.
    lane_tracks: dict[int, tuple] = {}

    def read_lanes(store, columns: list[list[str]], sole: bool, got: dict):
        """One DES process reading a group of the trainer's reader lanes.

        The lanes' mirror of :func:`_sim_ranks`: ``columns[k]`` is the
        ``k``-th key of every lane of the group that has one, in lane
        order, and costs one poll (re-polled every 0.01 s until the
        column's shared deadline) and one read for the whole group.
        Several lanes share a process only where :func:`_rank_groups`
        proved the producers publish in lock-step, so every lane finds
        the same thing at the same instant (the group ops check). A
        ``sole`` lane is the general case: key by key, through the
        trainer's own (possibly resilient) store.
        """
        for column in columns:
            n = len(column)
            tracks = lane_tracks.get(n)
            if tracks is None:
                tracks = lane_tracks[n] = ((ai_name, 0),) * n
            deadline = env.now + config.poll_timeout
            while True:
                try:
                    if sole:
                        present = yield from store.poll_staged_data(column[0])
                    else:
                        present = yield from poll_staged_group(store, tracks, column)
                except TransportError:
                    present = False
                if present or env.now >= deadline:
                    break
                yield 0.01  # producers not there yet: re-poll
            if present:
                try:
                    if sole:
                        yield from store.stage_read(column[0])
                    else:
                        yield from stage_read_group(store, tracks, [column])
                except TransportError:
                    present = False
            got.update(dict.fromkeys(column, present))
            counters["read" if present else "missed"] += n

    def trainer():
        store = harness.wrap(
            SimDataStore(
                env,
                model,
                area,
                component=ai_name,
                rank=0,
                event_log=log,
                default_ctx=read_ctx,
                fault_state=faults,
            )
        )
        rng = rngs.stream("ai")
        n_lanes = min(config.reader_lanes, config.n_simulations)
        # The lanes find keys in lock-step exactly when the producers
        # publish them in lock-step: the producers' inputs decide.
        lane_groups = _rank_groups(range(n_lanes), config.sim_iter_time, harness)
        prefixes = [f"sim{index}_update" for index in range(config.n_simulations)]
        add, sample = log.add, config.ai_iter_time.sample
        train, read_interval = EventKind.TRAIN, config.read_interval
        update = 0
        for iteration in range(1, config.train_iterations + 1):
            if faults is not None and faults.is_component_down(ai_name):
                counters["downtime"] += yield from faults.wait_until_up(env, ai_name)
            start = env.now
            yield max(0.0, sample(rng))
            add(ai_name, train, start, env.now - start, 0)
            counters["train_iters"] += 1
            if iteration % read_interval == 0:
                # Blocking collective ingest of this update from every
                # producer, spread over the reader lanes. Lanes give up
                # after poll_timeout, so a dead producer costs bounded
                # time; the quorum check below decides whether enough of
                # the collective arrived.
                keys = update_keys(prefixes, update)
                got: dict = {}
                procs = []
                for group in lane_groups:
                    # Lane j takes keys j, j + n_lanes, ...; a group is one
                    # lane or every lane, whose column k is then a slice.
                    if len(group) == 1:
                        columns = [[key] for key in keys[group[0]::n_lanes]]
                    else:
                        columns = [keys[i:i + n_lanes] for i in range(0, len(keys), n_lanes)]
                    procs.append(env.process(
                        read_lanes(store, columns, len(group) == 1, got), name=f"lane{group[0]}"
                    ))
                yield procs[0] if len(procs) == 1 else env.all_of(procs)
                arrived = sum(1 for ok in got.values() if ok)
                if arrived < quorum_needed:
                    harness.quorum_misses.append(
                        QuorumMiss(env.now, ai_name, update, arrived, quorum_needed)
                    )
                update += 1
        stop.set()

    harness.start()
    for group in _rank_groups(range(config.n_simulations), config.sim_iter_time, harness):
        env.process(producers(group), name=f"sim{group[0]}")
    env.process(trainer(), name=ai_name)
    _run(env, log, model, harness, telemetry)

    return PatternResult(
        log=log,
        makespan=_workload_makespan(log),
        sim_iterations=counters["sim_iters"],
        train_iterations=counters["train_iters"],
        snapshots_written=counters["written"],
        snapshots_read=counters["read"],
        resilience=harness.report(
            {
                "lost_snapshots": counters["lost"],
                "missed_reads": counters["missed"],
                "quorum_misses": len(harness.quorum_misses),
                "downtime_seconds": counters["downtime"],
            }
        ),
    )
