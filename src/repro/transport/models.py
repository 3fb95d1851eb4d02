"""Calibrated per-backend performance models for simulated runs.

Real Aurora hardware is not available, so the 8/128/512-node experiments
charge modeled operation times to the DES clock. Each backend model is a
composition of *named mechanisms* (not curve fits):

=================  ==========================================================
node-local         per-op syscall latency; serialization memcpy; tmpfs copy
                   with an L3 cache-spill knee (the Fig 3 throughput dip).
                   No scale dependence at all — staging never leaves the node.
redis              client serialization; TCP round-trip latency; a single-
                   threaded server executing commands serially (queueing
                   factor grows with clients per server); loopback vs network
                   stream bandwidth (the poor non-local read of Fig 5).
dragon             client serialization; low-latency binary protocol;
                   concurrent shard service (no single-thread queue); RDMA-
                   style non-local transfer that peaks near the manager
                   buffer size then degrades to store-and-forward (Fig 5's
                   ~10 MB peak); incast queueing at the consumer that grows
                   with fan-in (Fig 6's many-to-one latency penalty).
filesystem         client serialization; per-op *metadata* round-trips
                   through an MDS with bounded service capacity (latency
                   explodes with concurrent clients — Fig 3b's collapse);
                   striped OST data path whose per-stream share shrinks with
                   concurrent streams.
=================  ==========================================================

All constants live in the frozen ``*ModelSpec`` dataclasses below (the
filesystem's in :func:`~repro.cluster.filesystem.aurora_lustre`), and
:func:`aurora_backend_models` builds the calibrated set; every value is
justified in EXPERIMENTS.md against a ratio the paper reports.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

from repro.cluster.filesystem import LustreSpec, aurora_lustre
from repro.errors import TransportError

MB = 1024 * 1024


def _memoize_pure(method):
    """Per-instance memoization for pure model methods.

    Every spec is a frozen dataclass and :class:`TransportOpContext` is
    frozen (hence hashable), so the decorated methods are pure functions
    of their arguments: the same ``(nbytes, ctx)`` always yields the same
    float. Experiments charge the same handful of (size, context) pairs
    thousands of times, so caching skips the arithmetic without being
    able to change any charged time (see ARCHITECTURE.md "Performance").
    """
    cache_name = "_memo_" + method.__name__

    @functools.wraps(method)
    def wrapper(self, *args):
        cache = self.__dict__.get(cache_name)
        if cache is None:
            cache = self.__dict__[cache_name] = {}
        hit = cache.get(args)
        if hit is None:
            hit = cache[args] = method(self, *args)
        return hit

    return wrapper


@dataclass(frozen=True)
class TransportOpContext:
    """Where/when an operation happens — everything scale-dependent.

    ``local``: client and server (or staging area) share a node.
    ``clients_per_server``: processes hitting the same server instance.
    ``concurrent_clients``: active clients backend-wide (drives MDS load).
    ``fan_in``: producers one consumer is draining (many-to-one patterns).
    ``concurrent_peers``: simultaneous transfers sharing the consumer NIC.
    """

    local: bool = True
    clients_per_server: int = 1
    concurrent_clients: int = 1
    fan_in: int = 1
    concurrent_peers: int = 1

    def __post_init__(self) -> None:
        if min(
            self.clients_per_server,
            self.concurrent_clients,
            self.fan_in,
            self.concurrent_peers,
        ) < 1:
            raise TransportError(f"context counts must be >= 1: {self}")


def _check_size(nbytes: float) -> None:
    if nbytes < 0:
        raise TransportError(f"negative payload size {nbytes}")


def _incast_factor(coefficient: float, fan_in: int) -> float:
    """Queueing at the one consumer that ``fan_in`` producers feed
    (Fig 6's many-to-one latency effect); a single peer pays nothing."""
    return 1.0 + coefficient * max(0, fan_in - 1)


def _spill_bandwidth(nbytes: float, fast: float, slow: float, knee: float) -> float:
    """Blend from ``fast`` (working set fits a cache level) to ``slow`` as
    the payload increasingly exceeds ``knee`` bytes."""
    if nbytes <= knee:
        return fast
    spilled = 1.0 - knee / nbytes
    return fast * (1.0 - spilled) + slow * spilled


class BackendModel:
    """Interface: write/read/poll times under a context."""

    name = "abstract"

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        raise NotImplementedError

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        raise NotImplementedError

    def poll_time(self, ctx: TransportOpContext) -> float:
        raise NotImplementedError


@dataclass(frozen=True)
class SerializationSpec:
    """Client-side pickle/memcpy cost, shared by every backend."""

    bandwidth: float = 1.5e9  # bytes/s

    def time(self, nbytes: float) -> float:
        return nbytes / self.bandwidth


@dataclass(frozen=True)
class NodeLocalModelSpec:
    op_latency: float = 120e-6  # create/rename/open syscall path on tmpfs
    poll_latency: float = 50e-6  # stat
    cache_bandwidth: float = 8e9
    spill_bandwidth: float = 3e9
    l3_share_bytes: float = 105 * MB / 12.0  # paper's 12 ranks/node share
    serialization: SerializationSpec = field(default_factory=SerializationSpec)


class NodeLocalBackendModel(BackendModel):
    """tmpfs staging: scale-free, cache-spill knee."""

    name = "node-local"

    def __init__(self, spec: NodeLocalModelSpec | None = None) -> None:
        self.spec = spec or NodeLocalModelSpec()

    @_memoize_pure
    def _op_time(self, nbytes: float) -> float:
        _check_size(nbytes)
        s = self.spec
        bw = _spill_bandwidth(nbytes, s.cache_bandwidth, s.spill_bandwidth, s.l3_share_bytes)
        return s.op_latency + s.serialization.time(nbytes) + nbytes / bw

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        if not ctx.local:
            raise TransportError("node-local backend cannot serve non-local clients")
        return self._op_time(nbytes)

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        if not ctx.local:
            raise TransportError("node-local backend cannot serve non-local clients")
        return self._op_time(nbytes)

    def poll_time(self, ctx: TransportOpContext) -> float:
        return self.spec.poll_latency


@dataclass(frozen=True)
class RedisModelSpec:
    rtt_local: float = 120e-6  # loopback TCP round trip + RESP framing
    rtt_remote: float = 350e-6
    server_op_overhead: float = 40e-6  # command dispatch on the server
    server_copy_bandwidth: float = 3e9  # value memcpy inside the server
    collision_probability: float = 0.25  # chance a request queues behind another
    stream_bandwidth_local: float = 2.5e9  # loopback payload streaming
    stream_bandwidth_remote: float = 0.25e9  # single TCP stream, no pipelining
    l3_share_bytes: float = 105 * MB / 12.0
    spill_factor: float = 0.5  # in-memory value copies slow past the L3 share
    # Many-to-one: every producer needs its own synchronous TCP exchange
    # with the lone consumer, whose NIC/TCP stack serializes them.
    consumer_incast_coefficient: float = 2.0
    serialization: SerializationSpec = field(default_factory=SerializationSpec)


class RedisBackendModel(BackendModel):
    """Single-threaded in-memory server with TCP clients."""

    name = "redis"

    def __init__(self, spec: RedisModelSpec | None = None) -> None:
        self.spec = spec or RedisModelSpec()

    def _queue_factor(self, ctx: TransportOpContext) -> float:
        """Expected serialization behind other clients of the same server."""
        others = max(0, ctx.clients_per_server - 1)
        return 1.0 + self.spec.collision_probability * others

    def _stream_bandwidth(self, nbytes: float, local: bool) -> float:
        s = self.spec
        base = s.stream_bandwidth_local if local else s.stream_bandwidth_remote
        return _spill_bandwidth(nbytes, base, base * s.spill_factor, s.l3_share_bytes)

    def _rtt(self, ctx: TransportOpContext) -> float:
        s = self.spec
        rtt = s.rtt_local if ctx.local else s.rtt_remote
        return rtt * _incast_factor(s.consumer_incast_coefficient, ctx.fan_in)

    @_memoize_pure
    def _op_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        _check_size(nbytes)
        s = self.spec
        service = s.server_op_overhead + nbytes / s.server_copy_bandwidth
        stream = nbytes / self._stream_bandwidth(nbytes, ctx.local)
        return (
            s.serialization.time(nbytes)
            + self._rtt(ctx)
            + service * self._queue_factor(ctx)
            + stream
        )

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    @_memoize_pure
    def poll_time(self, ctx: TransportOpContext) -> float:
        return self._rtt(ctx) + self.spec.server_op_overhead * self._queue_factor(ctx)


@dataclass(frozen=True)
class DragonModelSpec:
    latency_local: float = 60e-6  # binary protocol, no text framing
    latency_remote: float = 150e-6
    bandwidth_local: float = 4e9
    spill_bandwidth_local: float = 2.2e9
    l3_share_bytes: float = 105 * MB / 12.0
    bandwidth_remote: float = 8e9  # RDMA-style transfer at the sweet spot
    nic_bandwidth: float = 25e9  # consumer NIC, shared by concurrent reads
    manager_buffer_bytes: float = 10 * MB  # Fig 5: peak near 10 MB
    store_forward_bandwidth: float = 2.0e9  # past the buffer: extra copy
    incast_coefficient: float = 2.0  # per-producer queueing at the consumer
    serialization: SerializationSpec = field(default_factory=SerializationSpec)


class DragonBackendModel(BackendModel):
    """Distributed dictionary with parallel managers."""

    name = "dragon"

    def __init__(self, spec: DragonModelSpec | None = None) -> None:
        self.spec = spec or DragonModelSpec()

    def _latency(self, ctx: TransportOpContext) -> float:
        s = self.spec
        base = s.latency_local if ctx.local else s.latency_remote
        # Many-to-one: requests from fan_in producers queue at the consumer's
        # manager; the paper infers exactly this latency effect in Fig 6.
        return base * _incast_factor(s.incast_coefficient, ctx.fan_in)

    def _data_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        s = self.spec
        if ctx.local:
            bw = _spill_bandwidth(
                nbytes, s.bandwidth_local, s.spill_bandwidth_local, s.l3_share_bytes
            )
            return nbytes / bw
        # The in-flight network leg shares the consumer's NIC among the
        # concurrent reads; the store-and-forward copy past the manager
        # buffer happens at each producer's manager, so it is unshared.
        bw = min(s.bandwidth_remote, s.nic_bandwidth / max(1, ctx.concurrent_peers))
        time = min(nbytes, s.manager_buffer_bytes) / bw
        overflow = max(0.0, nbytes - s.manager_buffer_bytes)
        if overflow > 0:
            time += overflow / s.store_forward_bandwidth
        return time

    @_memoize_pure
    def _op_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        _check_size(nbytes)
        return (
            self.spec.serialization.time(nbytes)
            + self._latency(ctx)
            + self._data_time(nbytes, ctx)
        )

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    @_memoize_pure
    def poll_time(self, ctx: TransportOpContext) -> float:
        return self._latency(ctx)


@dataclass(frozen=True)
class FileSystemModelSpec:
    lustre: LustreSpec = field(default_factory=LustreSpec)
    serialization: SerializationSpec = field(default_factory=SerializationSpec)
    # Metadata requests burst (every client polls/opens on the same cadence)
    # so the full client count queues at the MDS; bulk-data streams are long
    # and desynchronized, so only a fraction overlap on any OST at once.
    data_duty_cycle: float = 0.25


class FileSystemBackendModel(BackendModel):
    """Lustre: MDS metadata contention + shared OST data path.

    Delegates the queueing math to :class:`~repro.cluster.filesystem.
    LustreSpec`'s analytic estimates (the same mechanisms the DES
    :class:`~repro.cluster.filesystem.LustreModel` exercises), adding
    client-side serialization.
    """

    name = "filesystem"

    def __init__(self, spec: FileSystemModelSpec | None = None) -> None:
        self.spec = spec or FileSystemModelSpec()

    @_memoize_pure
    def _op_time(self, nbytes: float, ctx: TransportOpContext, is_write: bool) -> float:
        _check_size(nbytes)
        lustre = self.spec.lustre
        n_meta = (
            lustre.metadata_ops_per_write if is_write else lustre.metadata_ops_per_read
        )
        metadata = n_meta * lustre.metadata_latency_estimate(ctx.concurrent_clients)
        streams_per_ost = max(
            1.0, ctx.concurrent_clients * self.spec.data_duty_cycle / lustre.n_osts
        )
        data = lustre.data_time_estimate(nbytes, streams_per_ost)
        return self.spec.serialization.time(nbytes) + metadata + data

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx, True)

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx, False)

    @_memoize_pure
    def poll_time(self, ctx: TransportOpContext) -> float:
        waves = self.spec.lustre.metadata_latency_estimate(ctx.concurrent_clients)
        return self.spec.lustre.metadata_ops_per_poll * waves


@dataclass(frozen=True)
class StreamingModelSpec:
    """ADIOS2-SST-style point-to-point streaming (the paper's future-work
    backend, implemented in :mod:`repro.transport.streaming`).

    No keys, no polls, no metadata service: a step costs one handshake
    plus a pipelined transfer. The pipeline overlaps serialization with
    the wire transfer (``pipeline_overlap`` of the smaller term is
    hidden), which is streaming's edge over staging for repeated
    transfers. Incast physics is identical to any other remote transport.
    """

    handshake_latency: float = 30e-6  # persistent connection, no per-op setup
    bandwidth_local: float = 6e9
    bandwidth_remote: float = 8e9
    nic_bandwidth: float = 25e9
    pipeline_overlap: float = 0.8
    incast_coefficient: float = 2.0
    serialization: SerializationSpec = field(default_factory=SerializationSpec)


class StreamingBackendModel(BackendModel):
    """Point-to-point streaming: step writes/reads, no staging metadata."""

    name = "streaming"

    def __init__(self, spec: StreamingModelSpec | None = None) -> None:
        self.spec = spec or StreamingModelSpec()

    def _latency(self, ctx: TransportOpContext) -> float:
        s = self.spec
        return s.handshake_latency * _incast_factor(s.incast_coefficient, ctx.fan_in)

    @_memoize_pure
    def _op_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        _check_size(nbytes)
        s = self.spec
        if ctx.local:
            bw = s.bandwidth_local
        else:
            bw = min(s.bandwidth_remote, s.nic_bandwidth / max(1, ctx.concurrent_peers))
        ser = s.serialization.time(nbytes)
        wire = nbytes / bw
        # The pipeline hides most of the smaller stage behind the larger.
        overlapped = min(ser, wire) * s.pipeline_overlap
        return self._latency(ctx) + ser + wire - overlapped

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    @_memoize_pure
    def poll_time(self, ctx: TransportOpContext) -> float:
        # Streaming has no polls; a "check" is a zero-size handshake.
        return self._latency(ctx)


@dataclass(frozen=True)
class DaosModelSpec:
    """DAOS-style distributed object store (the paper's other future-work
    backend: "staging through DAOS on Aurora").

    The architectural difference from Lustre that matters here: metadata
    is a client-side hash over distributed key-value services, so there is
    **no central MDS** — per-op latency does not queue behind the whole
    machine's metadata traffic. Bulk data still shares the storage
    fabric's aggregate bandwidth.
    """

    op_latency: float = 80e-6  # client-hash + one KV service round trip
    poll_latency: float = 40e-6
    aggregate_bandwidth: float = 800e9  # whole-system object-store bandwidth
    per_client_bandwidth: float = 2.5e9
    serialization: SerializationSpec = field(default_factory=SerializationSpec)


class DaosBackendModel(BackendModel):
    """Distributed object store: scalable metadata, shared data fabric."""

    name = "daos"

    def __init__(self, spec: DaosModelSpec | None = None) -> None:
        self.spec = spec or DaosModelSpec()

    @_memoize_pure
    def _op_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        _check_size(nbytes)
        s = self.spec
        bandwidth = min(
            s.per_client_bandwidth,
            s.aggregate_bandwidth / max(1, ctx.concurrent_clients),
        )
        return s.op_latency + s.serialization.time(nbytes) + nbytes / bandwidth

    def write_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    def read_time(self, nbytes: float, ctx: TransportOpContext) -> float:
        return self._op_time(nbytes, ctx)

    def poll_time(self, ctx: TransportOpContext) -> float:
        return self.spec.poll_latency


def aurora_backend_models(processes_per_node: int = 12) -> dict[str, BackendModel]:
    """The four calibrated models for the Aurora experiments."""
    l3_share = 105 * MB / max(1, processes_per_node)
    return {
        "node-local": NodeLocalBackendModel(NodeLocalModelSpec(l3_share_bytes=l3_share)),
        "redis": RedisBackendModel(RedisModelSpec(l3_share_bytes=l3_share)),
        "dragon": DragonBackendModel(DragonModelSpec(l3_share_bytes=l3_share)),
        "filesystem": FileSystemBackendModel(FileSystemModelSpec(lustre=aurora_lustre())),
    }
