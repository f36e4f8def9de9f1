"""Topology builders matching the deployments evaluated in the paper.

Two families of topologies are provided:

* :func:`build_single_datacenter` — the 3-rack cluster of §8.1: each rack
  has a ToR switch, racks connect to a common aggregation switch over
  2x10 Gbps uplinks, hosts attach at 10 Gbps.  With 9/15/21/27 consensus
  nodes plus 15 client machines the oversubscription ratios are the
  1.5/2.5/3.5/4.5 reported in the paper.

* :func:`build_multi_datacenter` — the EC2 deployment of §8.2: each
  datacenter is one rack-like site with three consensus nodes and a local
  client pool; sites are connected pairwise through per-site WAN gateways
  using the Table 1 latency matrix.

Both builders return a :class:`Topology` object that records the logical
structure (racks, datacenters, host roles) on top of the raw
:class:`repro.sim.network.Network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.sim.engine import Simulator
from repro.sim.latencies import EC2_LATENCIES_MS, latency_s, regions_for_count
from repro.sim.network import CpuModel, Network

__all__ = [
    "Rack",
    "Datacenter",
    "Topology",
    "build_single_datacenter",
    "build_multi_datacenter",
    "EC2_LATENCIES_MS",
]

GBPS = 1e9
#: Host NIC and ToR downlink speed used in §8.1 (10 Gbps).
HOST_LINK_BPS = 10 * GBPS
#: Rack uplink: 2x10 Gbps bundle to the aggregation switch.
RACK_UPLINK_BPS = 20 * GBPS
#: Intra-rack one-way latency (ToR hop), typical for the paper's hardware.
INTRA_RACK_LATENCY_S = 25e-6
#: Aggregation-switch hop latency inside a datacenter.
AGGREGATION_LATENCY_S = 50e-6
#: WAN bandwidth per inter-datacenter path.
WAN_BANDWIDTH_BPS = 2 * GBPS


@dataclass
class Rack:
    """A rack: one ToR switch plus the hosts cabled to it."""

    name: str
    tor: str
    server_hosts: List[str] = field(default_factory=list)
    client_hosts: List[str] = field(default_factory=list)

    @property
    def hosts(self) -> List[str]:
        return self.server_hosts + self.client_hosts


@dataclass
class Datacenter:
    """A datacenter (site): one or more racks plus an aggregation switch."""

    name: str
    region: str
    aggregation: str
    racks: List[Rack] = field(default_factory=list)

    @property
    def server_hosts(self) -> List[str]:
        return [h for rack in self.racks for h in rack.server_hosts]

    @property
    def client_hosts(self) -> List[str]:
        return [h for rack in self.racks for h in rack.client_hosts]


@dataclass
class Topology:
    """Logical description of a built topology."""

    network: Network
    simulator: Simulator
    datacenters: List[Datacenter] = field(default_factory=list)
    kind: str = "single-dc"

    # ------------------------------------------------------------------
    @property
    def racks(self) -> List[Rack]:
        return [rack for dc in self.datacenters for rack in dc.racks]

    @property
    def server_hosts(self) -> List[str]:
        return [h for dc in self.datacenters for h in dc.server_hosts]

    @property
    def client_hosts(self) -> List[str]:
        return [h for dc in self.datacenters for h in dc.client_hosts]

    def rack_of(self, host: str) -> Rack:
        for rack in self.racks:
            if host in rack.hosts:
                return rack
        raise KeyError(host)

    def datacenter_of(self, host: str) -> Datacenter:
        for dc in self.datacenters:
            for rack in dc.racks:
                if host in rack.hosts:
                    return dc
        raise KeyError(host)

    def servers_by_rack(self) -> Dict[str, List[str]]:
        return {rack.name: list(rack.server_hosts) for rack in self.racks if rack.server_hosts}

    def oversubscription(self) -> float:
        """Worst-case rack oversubscription ratio (host bw / uplink bw)."""
        worst = 0.0
        for rack in self.racks:
            demand = len(rack.hosts) * HOST_LINK_BPS
            worst = max(worst, demand / RACK_UPLINK_BPS)
        return worst

    def make_runtime(self, node_id: str):
        """Bind ``node_id``'s host to a fresh :class:`SimRuntime`.

        Protocol builders construct their per-node runtimes through this
        hook instead of instantiating ``SimRuntime`` directly: it is the
        one place a node is bound to its host.
        """
        from repro.runtime.sim_runtime import SimRuntime

        return SimRuntime(self.simulator, self.network.hosts[node_id])


def _default_cpu() -> CpuModel:
    return CpuModel(per_message_s=4e-6, per_byte_s=1e-9)


def build_single_datacenter(
    simulator: Simulator,
    nodes_per_rack: int,
    racks: int = 3,
    clients_per_rack: int = 5,
    cpu: Optional[CpuModel] = None,
    host_bandwidth_bps: float = HOST_LINK_BPS,
    uplink_bandwidth_bps: float = RACK_UPLINK_BPS,
) -> Topology:
    """Build the §8.1 single-datacenter topology.

    ``nodes_per_rack`` of 3, 5, 7, 9 with ``racks=3`` gives the 9/15/21/27
    node configurations of Figure 4, with 5 client machines per rack (the
    15 dedicated client machines hosting 180 client processes).
    """
    if nodes_per_rack < 1 or racks < 1:
        raise ValueError("nodes_per_rack and racks must be positive")
    network = Network(simulator.loop)
    cpu = cpu or _default_cpu()

    aggregation = "agg-0"
    network.add_switch(aggregation)
    dc = Datacenter(name="dc-0", region="DC", aggregation=aggregation)

    for rack_index in range(racks):
        tor = f"tor-{rack_index}"
        network.add_switch(tor)
        network.add_link(tor, aggregation, AGGREGATION_LATENCY_S, uplink_bandwidth_bps)
        rack = Rack(name=f"rack-{rack_index}", tor=tor)
        for node_index in range(nodes_per_rack):
            host_name = f"n{rack_index}-{node_index}"
            host = network.add_host(host_name, cpu=cpu)
            host.rack = rack.name
            host.datacenter = dc.name
            network.add_link(host_name, tor, INTRA_RACK_LATENCY_S, host_bandwidth_bps)
            rack.server_hosts.append(host_name)
        for client_index in range(clients_per_rack):
            client_name = f"c{rack_index}-{client_index}"
            host = network.add_host(client_name, cpu=cpu)
            host.rack = rack.name
            host.datacenter = dc.name
            network.add_link(client_name, tor, INTRA_RACK_LATENCY_S, host_bandwidth_bps)
            rack.client_hosts.append(client_name)
        dc.racks.append(rack)

    return Topology(network=network, simulator=simulator, datacenters=[dc], kind="single-dc")


def build_multi_datacenter(
    simulator: Simulator,
    datacenter_count: int,
    nodes_per_datacenter: int = 3,
    clients_per_datacenter: int = 2,
    regions: Optional[Sequence[str]] = None,
    cpu: Optional[CpuModel] = None,
    wan_bandwidth_bps: float = WAN_BANDWIDTH_BPS,
) -> Topology:
    """Build the §8.2 multi-datacenter topology.

    Each datacenter holds one rack with ``nodes_per_datacenter`` consensus
    nodes and ``clients_per_datacenter`` client machines (the paper uses 100
    client processes per DC; client *processes* are modelled by the workload
    generator, client *machines* here).  Datacenters are connected through
    per-site WAN gateways with full-mesh links whose latencies come from
    Table 1.
    """
    region_list = list(regions) if regions is not None else regions_for_count(datacenter_count)
    if len(region_list) != datacenter_count:
        raise ValueError("regions length must equal datacenter_count")
    network = Network(simulator.loop)
    cpu = cpu or _default_cpu()

    datacenters: List[Datacenter] = []
    for dc_index, region in enumerate(region_list):
        gateway = f"wan-{region}"
        tor = f"tor-{region}"
        network.add_switch(gateway)
        network.add_switch(tor)
        intra_latency = latency_s(region, region) / 2.0
        network.add_link(tor, gateway, intra_latency, RACK_UPLINK_BPS)
        dc = Datacenter(name=f"dc-{region}", region=region, aggregation=gateway)
        rack = Rack(name=f"rack-{region}", tor=tor)
        for node_index in range(nodes_per_datacenter):
            host_name = f"n{region}-{node_index}"
            host = network.add_host(host_name, cpu=cpu)
            host.rack = rack.name
            host.datacenter = dc.name
            network.add_link(host_name, tor, INTRA_RACK_LATENCY_S, HOST_LINK_BPS)
            rack.server_hosts.append(host_name)
        for client_index in range(clients_per_datacenter):
            client_name = f"c{region}-{client_index}"
            host = network.add_host(client_name, cpu=cpu)
            host.rack = rack.name
            host.datacenter = dc.name
            network.add_link(client_name, tor, INTRA_RACK_LATENCY_S, HOST_LINK_BPS)
            rack.client_hosts.append(client_name)
        dc.racks.append(rack)
        datacenters.append(dc)

    # Full mesh of WAN links between gateways with Table 1 latencies.
    for i, region_a in enumerate(region_list):
        for region_b in region_list[i + 1 :]:
            network.add_link(
                f"wan-{region_a}",
                f"wan-{region_b}",
                latency_s(region_a, region_b),
                wan_bandwidth_bps,
            )

    return Topology(network=network, simulator=simulator, datacenters=datacenters, kind="multi-dc")
