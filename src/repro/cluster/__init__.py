"""Machine model: nodes, interconnect topology, file system, presets."""

from repro.cluster.filesystem import LustreModel, LustreSpec
from repro.cluster.machine import Machine, MachineInstance, MachineSpec, make_machine
from repro.cluster.network import NetworkFabric
from repro.cluster.node import GB, MB, CpuSpec, GpuSpec, Node, NodeSpec
from repro.cluster.presets import (
    aurora,
    aurora_lustre,
    aurora_node,
    aurora_node_local,
    laptop,
)
from repro.cluster.storage import NodeLocalModel, NodeLocalSpec
from repro.cluster.topology import DragonflyTopology, LinkSpec

__all__ = [
    "GB",
    "MB",
    "CpuSpec",
    "DragonflyTopology",
    "GpuSpec",
    "LinkSpec",
    "LustreModel",
    "LustreSpec",
    "Machine",
    "MachineInstance",
    "MachineSpec",
    "NetworkFabric",
    "Node",
    "NodeLocalModel",
    "NodeLocalSpec",
    "NodeSpec",
    "aurora",
    "aurora_lustre",
    "aurora_node",
    "aurora_node_local",
    "laptop",
    "make_machine",
]
