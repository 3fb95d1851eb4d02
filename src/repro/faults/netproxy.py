"""Deterministic network chaos proxy: a seeded TCP relay that misbehaves.

The in-process fault machinery (:mod:`repro.faults.state` consulted by
chaos transport clients) can only break operations *it* mediates. The
distributed sweep talks raw TCP between independent processes, so its
robustness claims — bounded frames, request-scoped timeouts, idempotent
retries, reconnect budgets — need faults injected *on the wire*. This
proxy sits between workers (or tenants) and a coordinator/service and
relays every byte through a seeded fault model:

* **connect refusal** — the accepted connection is closed before a
  byte flows (a crashed/restarting server);
* **mid-frame cuts** — the relay severs both directions partway through
  a chunk, tearing RESP frames at arbitrary byte boundaries;
* **latency spikes** — a chunk is held for a fixed delay before
  forwarding (a congested hop);
* **byte-level trickle** — a connection forwards one byte at a time,
  exercising every incremental-parser resume path;
* **one-way partition** — the server's replies are read and discarded
  while client requests still arrive (the nastiest case: the server
  *does* the work, the client never learns — exactly what idempotent
  retries and first-writer-wins acks exist for).

Determinism: every accepted connection gets its own RNG stream derived
from ``(seed, "netproxy", connection_ordinal)`` via
:func:`~repro.sweep.point.derive_seed`, so a given connection ordinal
always draws the same fate regardless of thread scheduling. The fault
*content* is reproducible; the interleaving of concurrent connections
is the OS's business (same contract as the seeded worker backoff).

``NetChaos.from_plan`` projects the existing :class:`~repro.faults.plan.
FaultPlan` vocabulary onto wire behaviour the same way
``FaultPlan.client_probabilities`` projects it onto per-op
probabilities — wall-clock relays cannot replay virtual-time windows,
so scheduled/stochastic entries become per-connection and per-chunk
probabilities.
"""

from __future__ import annotations

import itertools
import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.errors import FaultPlanError, ServerError
from repro.faults.plan import FaultKind, FaultPlan
from repro.sweep.point import derive_seed

_RELAY_CHUNK = 1 << 14


@dataclass(frozen=True)
class NetChaos:
    """Wire-fault probabilities for one :class:`ChaosProxy`.

    All fields are probabilities in [0, 1] except the two shaping knobs
    (``latency_seconds``, ``trickle_delay``). Per-*connection* draws
    (refuse, trickle, partition) happen once at accept; per-*chunk*
    draws (cut, latency) happen on every relayed read.
    """

    seed: int = 0
    #: P(close an accepted connection before relaying anything).
    refuse_p: float = 0.0
    #: P(sever both directions mid-chunk) per relayed chunk.
    cut_p: float = 0.0
    #: P(hold a chunk for ``latency_seconds``) per relayed chunk.
    latency_p: float = 0.0
    latency_seconds: float = 0.05
    #: P(a connection forwards byte-by-byte with ``trickle_delay`` gaps).
    trickle_p: float = 0.0
    trickle_delay: float = 0.001
    #: P(a connection's server->client direction silently drops).
    partition_p: float = 0.0

    def __post_init__(self) -> None:
        for name in ("refuse_p", "cut_p", "latency_p", "trickle_p", "partition_p"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise FaultPlanError(f"{name} must be in [0, 1], got {value}")
        if self.latency_seconds < 0 or self.trickle_delay < 0:
            raise FaultPlanError("latency_seconds/trickle_delay must be >= 0")

    @property
    def is_active(self) -> bool:
        return any(
            getattr(self, name) > 0.0
            for name in ("refuse_p", "cut_p", "latency_p", "trickle_p", "partition_p")
        )

    @classmethod
    def from_plan(cls, plan: FaultPlan, seed: Optional[int] = None) -> "NetChaos":
        """Project a :class:`FaultPlan` onto wire-level chaos.

        Mapping (max over entries of each kind, scheduled and stochastic
        alike — stochastic rates are capped at 1 like
        ``client_probabilities``):

        * ``BACKEND_CRASH``/``NODE_CRASH`` -> connect refusal;
        * ``PARTITION`` -> one-way partitions;
        * ``MESSAGE_DROP`` -> mid-frame cuts (severity = probability);
        * ``LINK_DEGRADE``/``OST_STALL``/``MDS_STALL`` -> latency spikes
          (and, above 4x slowdown, byte-trickling).
        """
        if not plan.is_active:
            return cls(seed=plan.seed if seed is None else seed)
        refuse = partition = cut = latency_p = trickle = 0.0
        latency_s = 0.05
        entries = [(f.kind, 1.0, f.severity) for f in plan.faults]
        entries += [
            (s.kind, min(1.0, s.rate), s.severity) for s in plan.stochastic
        ]
        for kind, presence, severity in entries:
            if kind in (FaultKind.BACKEND_CRASH, FaultKind.NODE_CRASH):
                refuse = max(refuse, 0.5 * presence)
            elif kind is FaultKind.PARTITION:
                partition = max(partition, 0.5 * presence)
            elif kind is FaultKind.MESSAGE_DROP:
                cut = max(cut, presence * severity)
            elif kind in (
                FaultKind.LINK_DEGRADE,
                FaultKind.OST_STALL,
                FaultKind.MDS_STALL,
            ):
                latency_p = max(latency_p, 0.5 * presence)
                latency_s = max(latency_s, 0.01 * severity)
                if severity >= 4.0:
                    trickle = max(trickle, 0.25 * presence)
        return cls(
            seed=plan.seed if seed is None else seed,
            refuse_p=refuse,
            cut_p=cut,
            latency_p=latency_p,
            latency_seconds=latency_s,
            trickle_p=trickle,
            partition_p=partition,
        )


class ChaosProxy:
    """A seeded misbehaving TCP relay in front of one upstream address."""

    def __init__(
        self,
        upstream: tuple[str, int],
        chaos: NetChaos,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.upstream = upstream
        self.chaos = chaos
        self._conn_ids = itertools.count()
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._listener.bind((host, port))
        except OSError as exc:
            raise ServerError(f"cannot bind chaos proxy {host}:{port}: {exc}") from exc
        self._listener.listen(128)
        self._listener.settimeout(0.2)
        self.host, self.port = self._listener.getsockname()
        self._running = threading.Event()
        self._accept_thread: Optional[threading.Thread] = None
        self._threads: list[threading.Thread] = []
        self._socks: set[socket.socket] = set()
        self._lock = threading.Lock()
        #: Injection counters, for assertions and artifacts.
        self.stats: dict[str, int] = {
            "accepted": 0,
            "refused": 0,
            "cut": 0,
            "delayed": 0,
            "trickled": 0,
            "partitioned": 0,
            "relayed_bytes": 0,
        }

    # -- lifecycle ----------------------------------------------------------
    @property
    def address(self) -> str:
        return f"{self.host}:{self.port}"

    def start(self) -> "ChaosProxy":
        if self._running.is_set():
            raise ServerError("chaos proxy already started")
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"netproxy-{self.port}", daemon=True
        )
        self._accept_thread.start()
        return self

    def stop(self) -> None:
        if not self._running.is_set():
            return
        self._running.clear()
        try:
            self._listener.close()
        except OSError:
            pass
        with self._lock:
            socks = list(self._socks)
        for sock in socks:
            _close(sock)
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5.0)
        for thread in self._threads:
            thread.join(timeout=1.0)

    def __enter__(self) -> "ChaosProxy":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def _count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.stats[key] = self.stats.get(key, 0) + n

    # -- relay --------------------------------------------------------------
    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                client, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break
            conn_id = next(self._conn_ids)
            thread = threading.Thread(
                target=self._handle,
                args=(client, conn_id),
                name=f"netproxy-conn-{conn_id}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def _handle(self, client: socket.socket, conn_id: int) -> None:
        rng = np.random.default_rng(
            derive_seed(self.chaos.seed, "netproxy", conn_id)
        )
        self._count("accepted")
        # Per-connection fates are drawn in a fixed order so conn_id
        # alone determines them.
        refused = float(rng.random()) < self.chaos.refuse_p
        trickled = float(rng.random()) < self.chaos.trickle_p
        partitioned = float(rng.random()) < self.chaos.partition_p
        if refused:
            self._count("refused")
            _close(client)
            return
        try:
            server = socket.create_connection(self.upstream, timeout=10.0)
        except OSError:
            _close(client)
            return
        for sock in (client, server):
            try:
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            except OSError:
                pass
        with self._lock:
            self._socks.update((client, server))
        if trickled:
            self._count("trickled")
        if partitioned:
            self._count("partitioned")
        cut = threading.Event()
        # Distinct per-direction streams, both derived from conn_id.
        up_rng = np.random.default_rng(
            derive_seed(self.chaos.seed, "netproxy", conn_id, "up")
        )
        down_rng = np.random.default_rng(
            derive_seed(self.chaos.seed, "netproxy", conn_id, "down")
        )
        up = threading.Thread(
            target=self._relay,
            args=(client, server, up_rng, trickled, False, cut),
            name=f"netproxy-{conn_id}-up",
            daemon=True,
        )
        down = threading.Thread(
            target=self._relay,
            args=(server, client, down_rng, trickled, partitioned, cut),
            name=f"netproxy-{conn_id}-down",
            daemon=True,
        )
        up.start()
        down.start()
        up.join()
        down.join()
        with self._lock:
            self._socks.difference_update((client, server))
        _close(client)
        _close(server)

    def _relay(
        self,
        src: socket.socket,
        dst: socket.socket,
        rng: np.random.Generator,
        trickled: bool,
        blackhole: bool,
        cut: threading.Event,
    ) -> None:
        """Forward src -> dst applying per-chunk faults until EOF or cut."""
        while self._running.is_set() and not cut.is_set():
            try:
                data = src.recv(_RELAY_CHUNK)
            except OSError:
                break
            if not data:
                break
            if blackhole:
                # One-way partition: keep reading (the server must not
                # block on its send buffer) but deliver nothing.
                continue
            if self.chaos.cut_p and float(rng.random()) < self.chaos.cut_p:
                # Mid-frame cut: forward a strict prefix, then sever.
                keep = int(rng.integers(0, len(data))) if len(data) > 1 else 0
                self._count("cut")
                if keep:
                    try:
                        dst.sendall(data[:keep])
                    except OSError:
                        pass
                cut.set()
                _close(src)
                _close(dst)
                return
            if self.chaos.latency_p and float(rng.random()) < self.chaos.latency_p:
                self._count("delayed")
                time.sleep(self.chaos.latency_seconds)
            # Counted before forwarding: once the peer has the bytes it may
            # read ``stats``, which must already include them.
            self._count("relayed_bytes", len(data))
            try:
                if trickled:
                    for i in range(len(data)):
                        dst.sendall(data[i : i + 1])
                        if self.chaos.trickle_delay:
                            time.sleep(self.chaos.trickle_delay)
                else:
                    dst.sendall(data)
            except OSError:
                break
        # EOF (or error) on one side: half-close towards the other so
        # in-flight replies still drain, then let the peer thread finish.
        try:
            dst.shutdown(socket.SHUT_WR)
        except OSError:
            pass


def _close(sock: socket.socket) -> None:
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
    try:
        sock.close()
    except OSError:
        pass


__all__ = ["ChaosProxy", "NetChaos"]
