"""Registry adapter for the ZooKeeper (Zab) ensemble."""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.protocols.base import ConsensusProtocol
from repro.protocols.registry import register_protocol
from repro.runtime.messages import ClientReply
from repro.sim.topology import Topology
from repro.zab.node import ZabConfig, ZabNode, ZabRole

__all__ = ["ZooKeeperProtocol"]


class ZooKeeperProtocol(ConsensusProtocol):
    """Zab leader + voting followers + observers (the Figure 5 baseline)."""

    name = "zookeeper"

    def __init__(self, topology: Topology, nodes: Dict[str, ZabNode], leader_id: str) -> None:
        super().__init__(topology, nodes)
        #: The ensemble's one leader (Zab's election is not modelled).
        self.leader_id = leader_id

    def committed_log(self, node_id: str) -> List[int]:
        return [request.request_id for request in self.node(node_id).committed_requests]

    def read_consistency(self) -> str:
        """ZooKeeper deliberately answers reads from the local replica — the
        paper's baseline configuration.  A linearizable read would need a
        ``sync`` barrier, which the comparison does not model."""
        return "sequential"


@register_protocol(
    "zookeeper",
    config_cls=ZabConfig,
    description="ZooKeeper: Zab leader + followers + observers (Figure 5)",
)
def build_zookeeper(
    topology: Topology,
    config: Optional[ZabConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> ZooKeeperProtocol:
    """The first server host leads, the next ``follower_count`` hosts are
    voting followers and the rest observe — the paper's ZooKeeper
    configuration (§8.1.2)."""
    config = config or ZabConfig()
    servers = topology.server_hosts
    leader_id = servers[0]
    followers = servers[1 : config.follower_count + 1]
    observers = servers[config.follower_count + 1 :]
    nodes: Dict[str, ZabNode] = {}
    for node_id in servers:
        runtime = topology.make_runtime(node_id)
        if node_id == leader_id:
            role = ZabRole.LEADER
        elif node_id in followers:
            role = ZabRole.FOLLOWER
        else:
            role = ZabRole.OBSERVER
        nodes[node_id] = ZabNode(
            runtime,
            role=role,
            leader_id=leader_id,
            followers=followers,
            observers=observers,
            config=config,
            on_reply=on_reply,
        )
    return ZooKeeperProtocol(topology, nodes, leader_id)
