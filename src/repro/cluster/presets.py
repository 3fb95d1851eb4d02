"""Machine presets, chiefly the Aurora model used throughout the paper.

Numbers trace to the paper's §4 description and public Aurora documentation:

* 2× Intel Xeon CPU Max per node, 52 physical cores each, 2 HT/core,
  512 GB DDR5 + 64 GB HBM per socket, 105 MB L3 per CPU (§4.1.2: "the
  total L3 cache on an Aurora CPU is 105 MB, which provides approximately
  8 MB per process in our 12-process per node configuration").
* 6× Intel Data Center GPU Max 1550 per node, 2 tiles each → 12 tiles.
* HPE Slingshot dragonfly fabric (~25 GB/s per NIC).
* Lustre ("Flare") parallel file system; the paper uses stripe size 1 MB,
  stripe count 1.

Only *ratios* of these figures matter for reproducing the paper's curve
shapes; EXPERIMENTS.md records how each calibrated constant was chosen.
"""

from __future__ import annotations

from repro.cluster.filesystem import LustreSpec
from repro.cluster.machine import Machine, MachineSpec
from repro.cluster.node import GB, MB, CpuSpec, GpuSpec, NodeSpec
from repro.cluster.storage import NodeLocalSpec
from repro.cluster.topology import LinkSpec


def aurora_node() -> NodeSpec:
    """One Aurora compute node."""
    cpu = CpuSpec(
        model="Intel Xeon CPU Max 9470C",
        cores=52,
        threads_per_core=2,
        l3_cache_bytes=105 * MB,
        ddr_bytes=512 * GB,
        hbm_bytes=64 * GB,
        ddr_bandwidth=300 * GB,
        hbm_bandwidth=1000 * GB,
    )
    gpu = GpuSpec(
        model="Intel Data Center GPU Max 1550",
        tiles=2,
        memory_bytes=128 * GB,
        memory_bandwidth=3200 * GB,
        pcie_bandwidth=64 * GB,
        peak_tflops=52.0,
    )
    return NodeSpec(
        name="aurora",
        cpus=(cpu, cpu),
        gpus=(gpu,) * 6,
        nic_bandwidth=25 * GB,
        nic_latency=2e-6,
        tmpfs_bandwidth=8 * GB,
        tmpfs_latency=15e-6,
        local_ssd_bandwidth=3 * GB,
        local_ssd_latency=80e-6,
    )


def aurora_lustre() -> LustreSpec:
    """The Lustre model calibrated to the paper's observations.

    ``mds_service_time`` and ``mds_capacity`` are the key calibrated pair:
    at 8 nodes × 12 ranks the metadata waves are short (fs is usable; a
    32 MB transfer ≈ one 0.031 s iteration), while at 512 nodes × 12 ranks
    queueing inflates per-op latency by roughly an order of magnitude
    (Fig 4 bottom-right).
    """
    return LustreSpec(
        n_osts=160,
        ost_bandwidth=5 * GB,
        mds_capacity=16,
        mds_service_time=450e-6,
        client_bandwidth=2 * GB,
        stripe_size=1 * MB,
        stripe_count=1,
    )


def aurora_node_local(processes_per_node: int = 12) -> NodeLocalSpec:
    """Node-local tmpfs staging on Aurora.

    Following the paper's arithmetic, the L3 share is one CPU's 105 MB /
    processes_per_node ≈ 8 MB per rank at the paper's 12 ranks per node —
    beyond which Fig 3's in-memory dip appears. Effective bandwidth ≈ 1 GB/s
    per process once serialization is included (Fig 4: a 32 MB transfer ≈
    one 0.031 s iteration).
    """
    return NodeLocalSpec(
        bandwidth=8 * GB,
        latency=15e-6,
        l3_share_bytes=105 * MB / max(1, processes_per_node),
        spill_bandwidth=3 * GB,
    )


def aurora(n_nodes: int = 8) -> Machine:
    """An Aurora partition with ``n_nodes`` nodes."""
    spec = MachineSpec(
        name="aurora",
        n_nodes=n_nodes,
        node=aurora_node(),
        lustre=aurora_lustre(),
        node_local=aurora_node_local(),
        nodes_per_switch=16,
        switches_per_group=32,
        node_link=LinkSpec(25e9, 2e-6),
        group_link=LinkSpec(50e9, 1e-6),
        global_link=LinkSpec(25e9, 2e-6),
    )
    return Machine(spec)


def laptop(n_nodes: int = 2) -> Machine:
    """A small machine for tests: modest everything, 2 GPU tiles per node."""
    node = NodeSpec(
        name="laptop",
        cpus=(CpuSpec(cores=8, l3_cache_bytes=16 * MB, ddr_bytes=32 * GB),),
        gpus=(GpuSpec(tiles=2, memory_bytes=8 * GB),),
        nic_bandwidth=10 * GB,
    )
    spec = MachineSpec(
        name="laptop",
        n_nodes=n_nodes,
        node=node,
        lustre=LustreSpec(n_osts=4, mds_capacity=2),
        node_local=NodeLocalSpec(l3_share_bytes=4 * MB),
        nodes_per_switch=4,
        switches_per_group=4,
    )
    return Machine(spec)
