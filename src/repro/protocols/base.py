"""The protocol-agnostic contract every consensus implementation satisfies.

The Canopus paper is a *comparative* study, so the repository's value grows
with the number of protocols it can place on the same topology and drive
with the same workload.  :class:`ConsensusProtocol` is that shared contract:

* lifecycle — :meth:`ConsensusProtocol.start` / :meth:`ConsensusProtocol.stop`,
  and :meth:`ConsensusProtocol.crash` to crash-stop one replica,
* client intake — :meth:`ConsensusProtocol.submit`; replies flow back
  through each node's ``on_reply`` callback and over the network to the
  submitting client host,
* read consistency — :attr:`ConsensusProtocol.read_modes` declares the
  read paths a protocol offers and the consistency level each provides;
  :meth:`ConsensusProtocol.set_read_mode` switches between them.  The
  conformance suite holds every protocol whose active mode claims
  ``"linearizable"`` to the linearizability checker,
* introspection — :meth:`ConsensusProtocol.stats`,
  :meth:`ConsensusProtocol.committed_log` and
  :meth:`ConsensusProtocol.is_healthy`.

Concrete protocols are thin adapters over the node implementations
(:mod:`repro.canopus`, :mod:`repro.epaxos`, :mod:`repro.zab`,
:mod:`repro.raft`); each registry factory places its protocol's nodes on
the topology and hands them to its adapter.  The benchmark harness,
workload generator and examples only ever see this interface plus the
registry in :mod:`repro.protocols.registry`.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Dict, List, Optional

from repro.runtime.messages import ClientReply, ClientRequest
from repro.sim.topology import Topology

__all__ = ["ConsensusProtocol"]


class ConsensusProtocol(abc.ABC):
    """One consensus protocol deployed on the server hosts of a topology.

    The adapter owns its nodes: ``nodes`` maps node id to protocol node in
    placement order, and every node offers ``start()``, ``stop()``,
    ``crash()`` and ``submit()``.  Subclasses add the introspection the
    harness and the conformance suite rely on.
    """

    #: Registry key of the protocol (set by subclasses).
    name: str = "abstract"

    #: Read paths the protocol offers, mapped to the consistency level each
    #: provides (``"linearizable"`` or ``"sequential"``); insertion order
    #: matters — the first entry is the default mode.  The base default
    #: describes protocols that order reads through consensus like writes
    #: (Canopus §5 read-by-delay, EPaxos read commands).
    read_modes: Dict[str, str] = {"replicated": "linearizable"}

    def __init__(self, topology: Topology, nodes: Dict[str, Any], stores: Optional[Dict[str, Any]] = None) -> None:
        self.topology = topology
        #: Node id -> protocol node, in placement order.
        self.nodes = nodes
        #: Per-node replicated state machines, when the protocol exposes them.
        self.stores: Dict[str, Any] = stores or {}
        self._read_mode = next(iter(self.read_modes))

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

        On the simulator its host fails first, so nothing more leaves or
        reaches it, and then the node stops; on a substrate without a
        simulated network (asyncio) only the node stops.
        """
        network = getattr(self.topology, "network", None)
        if network is not None:
            network.hosts[node_id].fail()
        self.nodes[node_id].crash()

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
    @property
    def read_mode(self) -> str:
        """The active read mode (one of :attr:`read_modes`)."""
        return self._read_mode

    def set_read_mode(self, mode: str) -> None:
        """Switch the read path every replica serves reads with."""
        if mode not in self.read_modes:
            supported = ", ".join(self.read_modes)
            raise ValueError(f"{self.name} has no read mode {mode!r}; supported: {supported}")
        self._read_mode = mode
        self._apply_read_mode(mode)

    def _apply_read_mode(self, mode: str) -> None:
        """Push a read-mode change down to the nodes (protocol hook)."""

    def read_consistency(self) -> str:
        """Consistency level of the active read mode."""
        return self.read_modes[self._read_mode]

    # ------------------------------------------------------------------
    # Topology of the deployment
    # ------------------------------------------------------------------
    def node(self, node_id: str) -> Any:
        return self.nodes[node_id]

    def node_ids(self) -> List[str]:
        return list(self.nodes)

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Any) -> None:
        """Install an observability hook (``repro.obs.Tracer``) everywhere.

        Sets each node's ``_obs`` attribute (read by the phase
        instrumentation next to the dispatch tables) and hooks each node
        runtime's delivery plane.  Detach by attaching ``None``; with the
        hook off every instrumentation point costs one attribute load.
        """
        for node in self.nodes.values():
            node._obs = tracer
            # Label phases with the registry name so variants sharing a node
            # class (canopus vs zkcanopus, zookeeper vs zab) stay distinct
            # in reports.
            node._obs_proto = self.name
            runtime = getattr(node, "runtime", None)
            if runtime is not None:
                runtime.attach_tracer(tracer)

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
