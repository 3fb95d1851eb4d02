"""Interconnect topology: a dragonfly-style graph built with networkx.

Aurora's Slingshot fabric is a dragonfly: nodes attach to switches, switches
within a group are all-to-all, and groups are connected by global links.
We reproduce that structure so that hop counts (and therefore latency) and
shared-link sets (and therefore contention) are derived from the topology
rather than assumed. networkx is imported where a graph is built or
searched, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigError


@dataclass(frozen=True)
class LinkSpec:
    """A physical link class with bandwidth (bytes/s) and latency (s)."""

    bandwidth: float
    latency: float

    def __post_init__(self) -> None:
        if self.bandwidth <= 0 or self.latency < 0:
            raise ConfigError(f"invalid link spec: {self}")


class DragonflyTopology:
    """A dragonfly network over ``n_nodes`` compute nodes.

    Parameters
    ----------
    n_nodes:
        Number of compute nodes.
    nodes_per_switch:
        Terminal links per switch.
    switches_per_group:
        Switches per group; intra-group links are all-to-all.
    node_link / group_link / global_link:
        Link classes for node-switch, intra-group, inter-group hops.
    """

    def __init__(
        self,
        n_nodes: int,
        nodes_per_switch: int = 16,
        switches_per_group: int = 32,
        node_link: LinkSpec = LinkSpec(25e9, 2e-6),
        group_link: LinkSpec = LinkSpec(50e9, 1e-6),
        global_link: LinkSpec = LinkSpec(25e9, 2e-6),
    ) -> None:
        if n_nodes <= 0:
            raise ConfigError(f"n_nodes must be positive, got {n_nodes}")
        if nodes_per_switch <= 0 or switches_per_group <= 0:
            raise ConfigError("nodes_per_switch and switches_per_group must be positive")

        self.n_nodes = n_nodes
        self.nodes_per_switch = nodes_per_switch
        self.switches_per_group = switches_per_group
        self.node_link = node_link
        self.group_link = group_link
        self.global_link = global_link

        self.n_switches = math.ceil(n_nodes / nodes_per_switch)
        self.n_groups = math.ceil(self.n_switches / switches_per_group)

        import networkx as nx

        self.graph = nx.Graph()
        self._build()
        # Route memo: the graph is immutable after _build(), so every
        # path query is a pure function of (src, dst). Each transfer in
        # the contention model asks for its route; without the memo that
        # is one networkx shortest-path search per simulated message.
        self._path_cache: dict[tuple[int, int], list[str]] = {}
        self._links_cache: dict[tuple[int, int], list[tuple[str, str]]] = {}
        self._latency_cache: dict[tuple[int, int], float] = {}

    # -- construction -----------------------------------------------------
    @staticmethod
    def node_id(i: int) -> str:
        return f"n{i}"

    @staticmethod
    def switch_id(i: int) -> str:
        return f"s{i}"

    def _build(self) -> None:
        g = self.graph
        for i in range(self.n_nodes):
            g.add_node(self.node_id(i), kind="node", group=self.group_of_node(i))
        for s in range(self.n_switches):
            g.add_node(self.switch_id(s), kind="switch", group=s // self.switches_per_group)

        # terminal links
        for i in range(self.n_nodes):
            s = i // self.nodes_per_switch
            g.add_edge(
                self.node_id(i),
                self.switch_id(s),
                bandwidth=self.node_link.bandwidth,
                latency=self.node_link.latency,
                kind="terminal",
            )

        # intra-group all-to-all
        for group in range(self.n_groups):
            members = [
                s
                for s in range(self.n_switches)
                if s // self.switches_per_group == group
            ]
            for idx, a in enumerate(members):
                for b in members[idx + 1 :]:
                    g.add_edge(
                        self.switch_id(a),
                        self.switch_id(b),
                        bandwidth=self.group_link.bandwidth,
                        latency=self.group_link.latency,
                        kind="group",
                    )

        # inter-group: one global link between the lead switches of every
        # pair of groups (idealised all-to-all group connectivity)
        leads = [group * self.switches_per_group for group in range(self.n_groups)]
        for i, a in enumerate(leads):
            for b in leads[i + 1 :]:
                g.add_edge(
                    self.switch_id(a),
                    self.switch_id(b),
                    bandwidth=self.global_link.bandwidth,
                    latency=self.global_link.latency,
                    kind="global",
                )

    # -- queries ----------------------------------------------------------
    def group_of_node(self, node: int) -> int:
        return (node // self.nodes_per_switch) // self.switches_per_group

    def path(self, src: int, dst: int) -> list[str]:
        """Minimal-hop route between two compute nodes (graph node ids).

        Cached per (src, dst); callers must treat the list as read-only.
        """
        cached = self._path_cache.get((src, dst))
        if cached is not None:
            return cached
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            route = [self.node_id(src)]
        else:
            import networkx as nx

            route = nx.shortest_path(self.graph, self.node_id(src), self.node_id(dst))
        self._path_cache[(src, dst)] = route
        return route

    def hop_count(self, src: int, dst: int) -> int:
        """Number of links traversed between two nodes (0 when identical)."""
        return len(self.path(src, dst)) - 1

    def path_latency(self, src: int, dst: int) -> float:
        """Sum of link latencies along the minimal route (cached)."""
        cached = self._latency_cache.get((src, dst))
        if cached is not None:
            return cached
        path = self.path(src, dst)
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += self.graph.edges[a, b]["latency"]
        self._latency_cache[(src, dst)] = total
        return total

    def path_bottleneck_bandwidth(self, src: int, dst: int) -> float:
        """Minimum link bandwidth along the route (inf for src == dst)."""
        path = self.path(src, dst)
        if len(path) == 1:
            return float("inf")
        return min(self.graph.edges[a, b]["bandwidth"] for a, b in zip(path, path[1:]))

    def path_links(self, src: int, dst: int) -> list[tuple[str, str]]:
        """Canonically ordered (sorted endpoints) link list along the route.

        Cached per (src, dst); callers must treat the list as read-only.
        """
        cached = self._links_cache.get((src, dst))
        if cached is not None:
            return cached
        path = self.path(src, dst)
        links = [tuple(sorted((a, b))) for a, b in zip(path, path[1:])]
        self._links_cache[(src, dst)] = links
        return links

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.n_nodes:
            raise ConfigError(
                f"node index {node} out of range [0, {self.n_nodes})"
            )
