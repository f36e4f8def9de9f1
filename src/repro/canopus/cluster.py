"""Wiring a set of Canopus nodes onto a substrate.

:func:`build_sim_cluster` places one Canopus node on every server host of a
topology, grouping hosts of the same rack into a super-leaf, which is
exactly the placement rule of §3.  Any object with ``servers_by_rack()``
and ``make_runtime(node_id)`` serves as the topology, so the same builder
runs the protocol on the asyncio substrate too:
``build_protocol("canopus", AsyncioTopology(rack_map, seed=...))``
(:class:`repro.runtime.asyncio_runtime.AsyncioTopology`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.canopus.config import CanopusConfig
from repro.canopus.lot import LeafOnlyTree
from repro.canopus.messages import ClientReply, ClientRequest
from repro.canopus.node import CanopusNode
from repro.sim.topology import Topology

__all__ = ["CanopusCluster", "build_sim_cluster"]


@dataclass
class CanopusCluster:
    """A set of Canopus nodes sharing one LOT."""

    lot: LeafOnlyTree
    nodes: Dict[str, CanopusNode] = field(default_factory=dict)
    config: CanopusConfig = field(default_factory=CanopusConfig)

    # ------------------------------------------------------------------
    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()

    def node(self, node_id: str) -> CanopusNode:
        return self.nodes[node_id]

    def node_ids(self) -> List[str]:
        return list(self.nodes.keys())

    def nodes_in_super_leaf(self, name: str) -> List[CanopusNode]:
        leaf = self.lot.super_leaves[name]
        return [self.nodes[member] for member in leaf.members if member in self.nodes]

    def committed_orders(self) -> Dict[str, List[int]]:
        """Per-node committed request-id order, for agreement checks."""
        return {node_id: node.committed_order() for node_id, node in self.nodes.items()}

    def total_committed_writes(self) -> int:
        return sum(node.stats["writes_committed"] for node in self.nodes.values())


def build_sim_cluster(
    topology: Topology,
    config: Optional[CanopusConfig] = None,
    apply_write_factory: Optional[Callable[[str], Callable[[ClientRequest], Optional[str]]]] = None,
    apply_read_factory: Optional[Callable[[str], Callable[[ClientRequest], Optional[str]]]] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
    lot_height: Optional[int] = None,
) -> CanopusCluster:
    """Place one Canopus node per server host of ``topology``.

    Hosts in the same rack become one super-leaf (§3 assumption 1).  The
    optional factories let callers attach a per-node replicated state
    machine (e.g. the ZKCanopus znode store).
    """
    config = config or CanopusConfig()
    height = lot_height if lot_height is not None else config.lot_height
    rack_map = topology.servers_by_rack()
    lot = LeafOnlyTree.from_rack_map(rack_map, height=height)
    cluster = CanopusCluster(lot=lot, config=config)
    for node_id in lot.pnodes:
        runtime = topology.make_runtime(node_id)
        cluster.nodes[node_id] = CanopusNode(
            runtime,
            lot,
            config=config,
            apply_write=apply_write_factory(node_id) if apply_write_factory else None,
            apply_read=apply_read_factory(node_id) if apply_read_factory else None,
            on_reply=on_reply,
        )
    return cluster
