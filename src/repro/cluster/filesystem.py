"""Parallel file system (Lustre) model.

Two mechanisms matter for the paper's results:

* **Data path** — a file of ``nbytes`` is striped over ``stripe_count``
  object storage targets (OSTs) in ``stripe_size`` chunks; each OST's
  bandwidth is shared by the streams concurrently hitting it. With the
  paper's default (stripe_count=1) each file lands on one OST, so per-file
  bandwidth is ``ost_bandwidth / concurrent streams on that OST`` —
  throughput *per process* stays roughly flat with node count as long as
  files spread over enough OSTs.
* **Metadata path** — every create/open/stat goes through the metadata
  server (MDS), modeled as a small fixed-capacity queue with a per-op
  service time. At 512 nodes × 12 ranks the concurrent metadata requests
  queue up, and the per-op *latency* explodes — exactly the "metadata
  contention" degradation the paper observes (Fig 3b, Fig 4). Because
  metadata cost is independent of message size, small messages suffer the
  most, preserving the paper's monotonic throughput-vs-size curve.

The spec carries the analytic interface (closed-form M/M/c-style
estimates), which the experiment drivers charge through
:class:`~repro.transport.models.FileSystemBackendModel`;
:class:`LustreModel` is the DES reference of the same mechanisms
(processes queue on the MDS Resource).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Generator, Optional

from repro.des import Environment, Resource
from repro.errors import ConfigError, SimulationError


@dataclass(frozen=True)
class LustreSpec:
    """Static parameters of the modeled file system."""

    n_osts: int = 64
    ost_bandwidth: float = 5e9  # bytes/s per OST
    mds_capacity: int = 4  # concurrent metadata ops serviced
    mds_service_time: float = 250e-6  # seconds per metadata op
    client_bandwidth: float = 2.5e9  # per-client max data bandwidth
    stripe_size: int = 1 * 1024 * 1024
    stripe_count: int = 1
    metadata_ops_per_write: int = 2  # create + close
    metadata_ops_per_read: int = 2  # open/lookup + close
    metadata_ops_per_poll: int = 1  # stat

    def __post_init__(self) -> None:
        if self.n_osts <= 0 or self.mds_capacity <= 0:
            raise ConfigError("n_osts and mds_capacity must be positive")
        if min(self.ost_bandwidth, self.client_bandwidth) <= 0:
            raise ConfigError("bandwidths must be positive")
        if self.mds_service_time < 0:
            raise ConfigError("mds_service_time must be >= 0")
        if self.stripe_size <= 0 or self.stripe_count <= 0:
            raise ConfigError("stripe settings must be positive")

    # -- analytic estimates ---------------------------------------------------
    def metadata_latency_estimate(self, concurrent_clients: int) -> float:
        """Expected per-op metadata latency with ``concurrent_clients``
        simultaneously issuing metadata ops (simple queueing estimate:
        service time × ceil(load / capacity))."""
        if concurrent_clients < 0:
            raise SimulationError("concurrent_clients must be >= 0")
        waves = max(1.0, concurrent_clients / self.mds_capacity)
        return self.mds_service_time * waves

    def data_time_estimate(self, nbytes: float, streams_per_ost: float = 1.0) -> float:
        """Expected pure-data time for one file of ``nbytes``."""
        if nbytes < 0:
            raise SimulationError("nbytes must be >= 0")
        count = min(self.stripe_count, self.n_osts)
        per_ost_share = self.ost_bandwidth / max(1.0, streams_per_ost)
        # Aggregate bandwidth over the stripes, capped by the client NIC.
        bandwidth = min(self.client_bandwidth, per_ost_share * count)
        return nbytes / bandwidth


def aurora_lustre() -> LustreSpec:
    """The Lustre model calibrated to the paper's observations.

    Aurora's "Flare" file system as the paper runs it: stripe size 1 MB,
    stripe count 1. ``mds_service_time`` and ``mds_capacity`` are the key
    calibrated pair: at 8 nodes × 12 ranks the metadata waves are short
    (fs is usable; a 32 MB transfer ≈ one 0.031 s iteration), while at
    512 nodes × 12 ranks queueing inflates per-op latency by roughly an
    order of magnitude (Fig 4 bottom-right). Only *ratios* of these
    figures matter for the paper's curve shapes; EXPERIMENTS.md records
    how each calibrated constant was chosen.
    """
    gib = 1024 * 1024 * 1024
    return LustreSpec(
        n_osts=160,
        ost_bandwidth=5 * gib,
        mds_capacity=16,
        mds_service_time=450e-6,
        client_bandwidth=2 * gib,
        stripe_size=1024 * 1024,
        stripe_count=1,
    )


class LustreModel:
    """Stateful Lustre model bound to a DES environment."""

    def __init__(self, env: Environment, spec: Optional[LustreSpec] = None) -> None:
        self.env = env
        self.spec = spec or LustreSpec()
        self.mds = Resource(env, capacity=self.spec.mds_capacity)
        self._ost_streams: Counter[int] = Counter()
        self._next_ost = 0
        self.metadata_ops = 0
        self.bytes_written = 0.0
        self.bytes_read = 0.0

    # -- placement ----------------------------------------------------------
    def assign_osts(self, key_hash: int) -> list[int]:
        """OSTs a file with this hash stripes over (round-robin start)."""
        count = min(self.spec.stripe_count, self.spec.n_osts)
        start = key_hash % self.spec.n_osts
        return [(start + i) % self.spec.n_osts for i in range(count)]

    # -- analytic estimate ----------------------------------------------------
    def op_time_estimate(
        self, nbytes: float, concurrent_clients: int, is_write: bool
    ) -> float:
        """Closed-form estimate of one stage_write/stage_read."""
        n_meta = (
            self.spec.metadata_ops_per_write
            if is_write
            else self.spec.metadata_ops_per_read
        )
        streams_per_ost = max(1.0, concurrent_clients / self.spec.n_osts)
        return n_meta * self.spec.metadata_latency_estimate(
            concurrent_clients
        ) + self.spec.data_time_estimate(nbytes, streams_per_ost)

    # -- DES processes --------------------------------------------------------
    def _metadata_op(self) -> Generator:
        with self.mds.request() as req:
            yield req
            yield self.spec.mds_service_time
        self.metadata_ops += 1

    def _data_transfer(self, nbytes: float, osts: list[int]) -> Generator:
        for ost in osts:
            self._ost_streams[ost] += 1
        try:
            # Bandwidth share evaluated at start of the transfer.
            per_ost = min(
                self.spec.ost_bandwidth / max(1, self._ost_streams[ost])
                for ost in osts
            )
            bandwidth = min(self.spec.client_bandwidth, per_ost * len(osts))
            yield nbytes / bandwidth
        finally:
            for ost in osts:
                self._ost_streams[ost] -= 1

    def write(self, key_hash: int, nbytes: float) -> Generator:
        """DES process: one staged write (metadata ops + striped data)."""
        for _ in range(self.spec.metadata_ops_per_write):
            yield from self._metadata_op()
        yield from self._data_transfer(nbytes, self.assign_osts(key_hash))
        self.bytes_written += nbytes

    def read(self, key_hash: int, nbytes: float) -> Generator:
        """DES process: one staged read."""
        for _ in range(self.spec.metadata_ops_per_read):
            yield from self._metadata_op()
        yield from self._data_transfer(nbytes, self.assign_osts(key_hash))
        self.bytes_read += nbytes

    def poll(self) -> Generator:
        """DES process: a metadata-only existence check."""
        for _ in range(self.spec.metadata_ops_per_poll):
            yield from self._metadata_op()
