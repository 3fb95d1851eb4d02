"""Network fabric: charges transfer times over the topology with contention.

The fabric tracks active flows per link. A new flow's effective bandwidth is
the minimum over its route of ``link_bandwidth / flows_sharing_link`` — a
max-min-lite model that captures the paper's key effect: in a many-to-one
pattern every producer's flow shares the consumer's terminal link, so
per-flow bandwidth collapses as the ensemble grows (incast).

Transfer time for ``nbytes`` is ``path_latency + per_message_overhead +
nbytes / effective_bandwidth``. Bandwidth sharing is evaluated when the flow
starts (flows do not get retroactively re-timed on churn; at the message
sizes studied this keeps the model simple and errs conservatively).

Performance (see ARCHITECTURE.md "Performance"): routes, their latencies,
and their per-link bandwidths are immutable once the topology is built, so
the fabric caches them per (src, dst) instead of re-walking the networkx
graph on every transfer. The fair-share bandwidth of a route is cached too,
keyed by an epoch signature: every link carries a counter bumped whenever
its flow count changes, and a route's signature is the sum of its link
epochs. Epochs only increment, so an unchanged signature proves no link on
the route gained or lost a flow since the share was computed — the cached
value is exact, never an approximation, and timing stays bit-identical.
"""

from __future__ import annotations

from collections import Counter
from typing import Generator

from repro.des import Environment
from repro.cluster.topology import DragonflyTopology
from repro.errors import SimulationError


class NetworkFabric:
    """Stateful contention-aware transfer-time model over a topology."""

    def __init__(
        self,
        env: Environment,
        topology: DragonflyTopology,
        per_message_overhead: float = 5e-6,
        intra_node_bandwidth: float = 50e9,
        intra_node_latency: float = 1e-6,
    ) -> None:
        self.env = env
        self.topology = topology
        self.per_message_overhead = per_message_overhead
        self.intra_node_bandwidth = intra_node_bandwidth
        self.intra_node_latency = intra_node_latency
        self._link_flows: Counter[tuple[str, str]] = Counter()
        # (src, dst) -> (links, path latency, per-link bandwidths); all
        # static once the topology graph is built.
        self._route_cache: dict[
            tuple[int, int], tuple[tuple[tuple[str, str], ...], float, tuple[float, ...]]
        ] = {}
        # link -> epoch, bumped on every flow-count change on that link.
        self._link_epoch: dict[tuple[str, str], int] = {}
        # (src, dst) -> (epoch signature, fair share at that signature).
        self._share_cache: dict[tuple[int, int], tuple[int, float]] = {}
        self.completed_transfers = 0
        self.bytes_moved = 0.0

    def _route(
        self, src: int, dst: int
    ) -> tuple[tuple[tuple[str, str], ...], float, tuple[float, ...]]:
        """Cached (links, latency, bandwidths) for a src->dst route."""
        key = (src, dst)
        cached = self._route_cache.get(key)
        if cached is None:
            links = tuple(self.topology.path_links(src, dst))
            edges = self.topology.graph.edges
            bandwidths = tuple(edges[link]["bandwidth"] for link in links)
            cached = (links, self.topology.path_latency(src, dst), bandwidths)
            self._route_cache[key] = cached
        return cached

    # -- analytic queries ---------------------------------------------------
    def effective_bandwidth(self, src: int, dst: int) -> float:
        """Bandwidth a new src->dst flow would get right now (bytes/s)."""
        if src == dst:
            return self.intra_node_bandwidth
        links, _, bandwidths = self._route(src, dst)
        flows = self._link_flows
        best = float("inf")
        for link, bw in zip(links, bandwidths):
            sharers = flows[link] + 1  # include the new flow
            best = min(best, bw / sharers)
        return best

    def transfer_time(self, src: int, dst: int, nbytes: float) -> float:
        """Time a transfer starting now would take (no state change)."""
        if nbytes < 0:
            raise SimulationError(f"negative transfer size {nbytes}")
        if src == dst:
            latency = self.intra_node_latency
        else:
            latency = self._route(src, dst)[1]
        bandwidth = self.effective_bandwidth(src, dst)
        return latency + self.per_message_overhead + nbytes / bandwidth

    def active_flows_on(self, src: int, dst: int) -> int:
        """Max flow count over the links of the src->dst route."""
        if src == dst:
            return 0
        flows = self._link_flows
        return max((flows[link] for link in self._route(src, dst)[0]), default=0)

    # -- DES process --------------------------------------------------------
    def transfer(self, src: int, dst: int, nbytes: float) -> Generator:
        """DES generator: occupy the route for the duration of the transfer.

        Usage inside a process: ``yield from fabric.transfer(a, b, size)`` or
        ``yield env.process(fabric.transfer(a, b, size))``.
        """
        links = () if src == dst else self._route(src, dst)[0]
        flows = self._link_flows
        epochs = self._link_epoch
        for link in links:
            flows[link] += 1
            epochs[link] = epochs.get(link, 0) + 1
        try:
            duration = self.transfer_time_with_current_share(src, dst, nbytes)
            yield duration
        finally:
            for link in links:
                flows[link] -= 1
                epochs[link] += 1
        self.completed_transfers += 1
        self.bytes_moved += nbytes
        return duration

    def transfer_time_with_current_share(
        self, src: int, dst: int, nbytes: float
    ) -> float:
        """Like :meth:`transfer_time` but assuming our flow is already
        registered on the route (used internally by :meth:`transfer`)."""
        if src == dst:
            return (
                self.intra_node_latency
                + self.per_message_overhead
                + nbytes / self.intra_node_bandwidth
            )
        links, latency, bandwidths = self._route(src, dst)
        epochs = self._link_epoch
        signature = 0
        for link in links:
            signature += epochs.get(link, 0)
        cached = self._share_cache.get((src, dst))
        if cached is not None and cached[0] == signature:
            best = cached[1]
        else:
            flows = self._link_flows
            best = float("inf")
            for link, bw in zip(links, bandwidths):
                sharers = max(1, flows[link])
                best = min(best, bw / sharers)
            self._share_cache[(src, dst)] = (signature, best)
        return latency + self.per_message_overhead + nbytes / best
