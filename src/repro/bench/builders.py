"""Builders that assemble a complete system-under-test on a simulated topology.

A *system under test* bundles the topology, the protocol deployed on its
server hosts (built through the :mod:`repro.protocols` registry), and the
replicated state machine the protocol drives.  The registered systems match
the paper's comparisons — ``canopus``, ``zkcanopus``, ``epaxos``,
``zookeeper`` — plus any protocol registered afterwards (``raft`` ships as
the template); :func:`build_system` itself contains no per-protocol logic.

Because the substrate is a simulator rather than the paper's 10 GbE
cluster, the default CPU/bandwidth model is *scaled*: per-message costs are
larger and links slower so that saturation appears at request rates a
Python discrete-event simulation can reach.  The scaling is uniform across
systems, which preserves the relative comparisons the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.protocols import ConsensusProtocol, build_protocol
from repro.runtime.messages import ClientReply
from repro.sim.engine import Simulator
from repro.sim.network import CpuModel
from repro.sim.topology import Topology, build_multi_datacenter, build_single_datacenter

__all__ = [
    "SystemUnderTest",
    "build_system",
    "make_single_dc_topology",
    "make_multi_dc_topology",
    "scaled_cpu_model",
    "SCALED_HOST_BPS",
    "SCALED_UPLINK_BPS",
    "SCALED_WAN_BPS",
]

#: Scaled link speeds (see module docstring).  The 2:1 uplink:host ratio of
#: the paper's topology (2x10G uplink vs 10G hosts) is preserved.
SCALED_HOST_BPS = 200e6
SCALED_UPLINK_BPS = 400e6
SCALED_WAN_BPS = 150e6


def scaled_cpu_model() -> CpuModel:
    """CPU model scaled so hosts saturate at simulatable request rates."""
    return CpuModel(per_message_s=10e-6, per_byte_s=120e-9, send_fraction=0.4)


@dataclass
class SystemUnderTest:
    """A protocol deployed on a topology, ready to receive clients."""

    name: str
    topology: Topology
    simulator: Simulator
    protocol: ConsensusProtocol
    stores: Dict[str, Any] = field(default_factory=dict)

    def start(self) -> None:
        self.protocol.start()

    def stop(self) -> None:
        self.protocol.stop()

    def server_ids(self) -> List[str]:
        return self.protocol.node_ids()


# ----------------------------------------------------------------------
# Topology factories
# ----------------------------------------------------------------------
def make_single_dc_topology(simulator: Simulator, nodes_per_rack: int, racks: int = 3) -> Topology:
    """The §8.1 three-rack topology with scaled link speeds."""
    return build_single_datacenter(
        simulator,
        nodes_per_rack=nodes_per_rack,
        racks=racks,
        clients_per_rack=5,
        cpu=scaled_cpu_model(),
        host_bandwidth_bps=SCALED_HOST_BPS,
        uplink_bandwidth_bps=SCALED_UPLINK_BPS,
    )


def make_multi_dc_topology(simulator: Simulator, datacenters: int, nodes_per_dc: int = 3) -> Topology:
    """The §8.2 EC2 topology with Table 1 latencies and scaled bandwidth."""
    return build_multi_datacenter(
        simulator,
        datacenter_count=datacenters,
        nodes_per_datacenter=nodes_per_dc,
        clients_per_datacenter=2,
        cpu=scaled_cpu_model(),
        wan_bandwidth_bps=SCALED_WAN_BPS,
    )


# ----------------------------------------------------------------------
# System builder
# ----------------------------------------------------------------------
def build_system(
    name: str,
    topology: Topology,
    config: Any = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> SystemUnderTest:
    """Build the named system on ``topology`` through the protocol registry.

    ``config`` is the protocol's own configuration object (``None`` for the
    registry default); the registry validates its type against the
    protocol being built.
    """
    protocol = build_protocol(name, topology, config=config, on_reply=on_reply)
    return SystemUnderTest(
        name=name,
        topology=topology,
        simulator=topology.simulator,
        protocol=protocol,
        stores=protocol.stores,
    )
