"""Registry adapters for Canopus and ZKCanopus.

``canopus`` runs the protocol over each node's in-node replica (the
configuration of Figures 4, 6 and 7); ``zkcanopus`` attaches an external
:class:`repro.kvstore.store.KVStore` per node as the replicated state
machine, matching the ZooKeeper-on-Canopus system of Figure 5.

Both place one Canopus node on every server host and group the hosts of one
rack into a super-leaf, which is exactly the placement rule of §3.  Any
object with ``servers_by_rack()`` and ``make_runtime(node_id)`` serves as
the topology, so the same factories run the protocol on the asyncio
substrate too: ``build_protocol("canopus", AsyncioTopology(rack_map))``.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional

from repro.canopus.config import CanopusConfig
from repro.canopus.lot import LeafOnlyTree
from repro.canopus.node import CanopusNode
from repro.kvstore.store import KVStore
from repro.protocols.base import ConsensusProtocol
from repro.protocols.registry import register_protocol
from repro.runtime.messages import ClientReply
from repro.sim.topology import Topology

__all__ = ["CanopusProtocol"]


class CanopusProtocol(ConsensusProtocol):
    """Canopus cycles over the leaf-only tree; one node per server host."""

    name = "canopus"

    def __init__(
        self,
        topology: Topology,
        nodes: Dict[str, CanopusNode],
        lot: LeafOnlyTree,
        stores: Optional[Dict[str, Any]] = None,
    ) -> None:
        super().__init__(topology, nodes, stores=stores)
        #: The overlay every node shares.
        self.lot = lot

    def committed_log(self, node_id: str) -> List[int]:
        return self.node(node_id).committed_order()

    def is_healthy(self) -> bool:
        return super().is_healthy() and all(node.running for node in self.nodes.values())


def _place(
    topology: Topology,
    config: Optional[CanopusConfig],
    on_reply: Optional[Callable[[ClientReply], None]],
    stores: Optional[Dict[str, KVStore]] = None,
) -> CanopusProtocol:
    """One node per pnode of the LOT built from the topology's racks.

    With ``stores``, each node applies committed writes to, and serves
    reads from, the store of its own host.
    """
    config = config or CanopusConfig()
    lot = LeafOnlyTree.from_rack_map(topology.servers_by_rack(), height=config.lot_height)
    nodes: Dict[str, CanopusNode] = {}
    for node_id in lot.pnodes:
        runtime = topology.make_runtime(node_id)
        if stores is None:
            nodes[node_id] = CanopusNode(runtime, lot, config=config, on_reply=on_reply)
            continue
        store = stores[node_id]
        nodes[node_id] = CanopusNode(
            runtime,
            lot,
            config=config,
            apply_write=lambda request, store=store: store.write(request.key, request.value or ""),
            apply_read=lambda request, store=store: store.read(request.key),
            on_reply=on_reply,
        )
    return CanopusProtocol(topology, nodes, lot, stores=stores)


@register_protocol(
    "canopus",
    config_cls=CanopusConfig,
    description="Canopus over its own in-node replica (Figures 4, 6, 7)",
)
def build_canopus(
    topology: Topology,
    config: Optional[CanopusConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> CanopusProtocol:
    return _place(topology, config, on_reply)


@register_protocol(
    "zkcanopus",
    config_cls=CanopusConfig,
    description="ZooKeeper's znode store replicated by Canopus (Figure 5)",
)
def build_zkcanopus(
    topology: Topology,
    config: Optional[CanopusConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> CanopusProtocol:
    stores = {node_id: KVStore() for node_id in topology.server_hosts}
    protocol = _place(topology, config, on_reply, stores=stores)
    protocol.name = "zkcanopus"
    return protocol
