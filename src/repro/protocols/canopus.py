"""Registry adapter for Canopus, built under both ``canopus`` and ``zkcanopus``.

Both names build the same deployment: every node applies committed writes
to its own :class:`repro.kvstore.store.KVStore` and serves reads from it.
``canopus`` is the configuration of Figures 4, 6 and 7; ``zkcanopus`` is
the name of the ZooKeeper-on-Canopus system of Figure 5, kept so that its
runs and phase labels stay distinct.

The factory places one Canopus node on every server host and groups the
hosts of one rack into a super-leaf, which is exactly the placement rule of
§3.  It touches the topology only through ``servers_by_rack()`` and
``make_runtime(node_id)``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.canopus.config import CanopusConfig
from repro.canopus.lot import LeafOnlyTree
from repro.canopus.node import CanopusNode
from repro.protocols.base import ConsensusProtocol
from repro.runtime.messages import ClientReply
from repro.sim.topology import Topology

__all__ = ["CONFIG_CLS", "CanopusProtocol", "build"]

CONFIG_CLS = CanopusConfig


class CanopusProtocol(ConsensusProtocol):
    """Canopus cycles over the leaf-only tree; one node per server host."""

    name = "canopus"

    def __init__(
        self,
        topology: Topology,
        nodes: Dict[str, CanopusNode],
        lot: LeafOnlyTree,
    ) -> None:
        super().__init__(topology, nodes)
        #: The overlay every node shares.
        self.lot = lot

    def committed_log(self, node_id: str) -> List[int]:
        return self.node(node_id).committed_order()

    def is_healthy(self) -> bool:
        return super().is_healthy() and all(node.running for node in self.nodes.values())


def build(
    topology: Topology,
    config: Optional[CanopusConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> CanopusProtocol:
    """One node per pnode of the LOT built from the topology's racks."""
    config = config or CanopusConfig()
    lot = LeafOnlyTree.from_rack_map(topology.servers_by_rack(), height=config.lot_height)
    nodes = {
        node_id: CanopusNode(topology.make_runtime(node_id), lot, config=config, on_reply=on_reply)
        for node_id in lot.pnodes
    }
    return CanopusProtocol(topology, nodes, lot)
