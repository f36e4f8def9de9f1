"""The protocol-agnostic contract every consensus implementation satisfies.

The Canopus paper is a *comparative* study, so the repository's value grows
with the number of protocols it can place on the same topology and drive
with the same workload.  :class:`ConsensusProtocol` is that shared contract:

* lifecycle — :meth:`ConsensusProtocol.start` / :meth:`ConsensusProtocol.stop`,
  and :meth:`ConsensusProtocol.crash` to crash-stop one replica,
* client intake — :meth:`ConsensusProtocol.submit`; replies flow back
  through each node's ``on_reply`` callback and over the network to the
  submitting client host,
* read consistency — :meth:`ConsensusProtocol.read_consistency` declares
  the one consistency level a protocol's reads provide.  The conformance
  suite holds every protocol that claims ``"linearizable"`` to the
  linearizability checker,
* introspection — :meth:`ConsensusProtocol.stats`,
  :meth:`ConsensusProtocol.committed_log` and
  :meth:`ConsensusProtocol.is_healthy`.

Concrete protocols are thin adapters over the node implementations
(:mod:`repro.canopus`, :mod:`repro.epaxos`, :mod:`repro.zab`); each
registry factory places its protocol's nodes on the topology and hands
them to its adapter.  The benchmark harness,
workload generator and examples only ever see this interface plus the
registry in :mod:`repro.protocols.registry`.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional

from repro.kvstore.store import KVStore
from repro.runtime.messages import ClientReply, ClientRequest
from repro.sim.topology import Topology

__all__ = ["ConsensusProtocol"]


class ConsensusProtocol(abc.ABC):
    """One consensus protocol deployed on the server hosts of a topology.

    The adapter owns its nodes: ``nodes`` maps node id to protocol node in
    placement order, and every node offers ``start()``, ``stop()``,
    ``submit()``, a ``crashed`` flag and the ``store``
    (:class:`repro.kvstore.store.KVStore`) it applies committed writes to.
    A node has no crash method of its own: :meth:`crash` is the one crash
    meaning.  Subclasses add the introspection the harness and the
    conformance suite rely on.
    """

    #: Registry key of the protocol (set by subclasses).
    name: str = "abstract"

    def __init__(self, topology: Topology, nodes: Dict[str, Any]) -> None:
        self.topology = topology
        #: Node id -> protocol node, in placement order.
        self.nodes = nodes

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()

    def crash(self, node_id: str) -> None:
        """Crash-stop replica ``node_id``.

        Its host fails first, so nothing more leaves or reaches it; then
        the node is marked ``crashed`` and stopped.
        """
        self.topology.network.hosts[node_id].fail()
        node = self.nodes[node_id]
        node.crashed = True
        node.stop()

    # ------------------------------------------------------------------
    # Client intake
    # ------------------------------------------------------------------
    def submit(self, request: ClientRequest, node_id: Optional[str] = None) -> None:
        """Submit ``request`` to ``node_id`` (default: the first node)."""
        target = node_id if node_id is not None else self.node_ids()[0]
        self.node(target).submit(request)

    def set_on_reply(self, callback: Optional[Callable[[ClientReply], None]]) -> None:
        """Attach a reply sink on every node (tests and examples)."""
        for node in self.nodes.values():
            node.on_reply = callback

    # ------------------------------------------------------------------
    # Read consistency
    # ------------------------------------------------------------------
    def read_consistency(self) -> str:
        """The one consistency level this protocol's reads provide.

        ``"linearizable"`` here, for protocols that order reads through
        consensus like writes (Canopus §5 read-by-delay, EPaxos read
        commands); a protocol that answers reads from a local replica
        overrides it with ``"sequential"``.
        """
        return "linearizable"

    # ------------------------------------------------------------------
    # Topology of the deployment
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Any:
        return self.nodes[node_id]

    @property
    def stores(self) -> Dict[str, KVStore]:
        """Node id -> the replica's key-value store, in placement order."""
        return {node_id: node.store for node_id, node in self.nodes.items()}

    def node_ids(self) -> List[str]:
        return list(self.nodes)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Aggregate per-node protocol counters plus transport traffic."""
        totals: Dict[str, int] = {}
        for node in self.nodes.values():
            for key, value in getattr(node, "stats", {}).items():
                totals[key] = totals.get(key, 0) + value
            transport = getattr(getattr(node, "runtime", None), "transport", None)
            if transport is not None:
                totals["messages_sent"] = totals.get("messages_sent", 0) + transport.messages_sent
                totals["bytes_sent"] = totals.get("bytes_sent", 0) + transport.bytes_sent
        return totals

    @abc.abstractmethod
    def committed_log(self, node_id: str) -> List[int]:
        """Request ids this replica has committed/executed, in commit order.

        At quiescence every replica of a healthy deployment reports the
        same log — that is the agreement property the conformance suite
        checks across all registered protocols.
        """

    def committed_logs(self) -> Dict[str, List[int]]:
        """Per-replica committed logs, for agreement checks."""
        return {node_id: self.committed_log(node_id) for node_id in self.node_ids()}

    def is_healthy(self) -> bool:
        """True while every replica is alive (not crash-stopped)."""
        return not any(node.crashed for node in self.nodes.values())

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r} nodes={len(self.nodes)}>"
