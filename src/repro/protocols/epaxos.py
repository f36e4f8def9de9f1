"""Registry adapter for EPaxos."""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.epaxos.node import EPaxosConfig, EPaxosNode
from repro.protocols.base import ConsensusProtocol
from repro.protocols.registry import register_protocol
from repro.runtime.messages import ClientReply
from repro.sim.topology import Topology

__all__ = ["EPaxosProtocol"]


class EPaxosProtocol(ConsensusProtocol):
    """EPaxos with configurable batching; every replica is a command leader."""

    name = "epaxos"

    def committed_log(self, node_id: str) -> List[int]:
        return self.node(node_id).executed_commands()


@register_protocol(
    "epaxos",
    config_cls=EPaxosConfig,
    description="EPaxos with configurable batching (Figures 4, 6, 7)",
)
def build_epaxos(
    topology: Topology,
    config: Optional[EPaxosConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> EPaxosProtocol:
    config = config or EPaxosConfig()
    replicas = topology.server_hosts
    nodes = {
        node_id: EPaxosNode(topology.make_runtime(node_id), replicas, config=config, on_reply=on_reply)
        for node_id in replicas
    }
    return EPaxosProtocol(topology, nodes)
