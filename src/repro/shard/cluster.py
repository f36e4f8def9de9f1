"""K independent consensus groups over one shared simulated network.

A :class:`ShardedCluster` slices the server hosts of a topology into K
disjoint shard groups and builds one registry protocol instance per group —
any registered protocol per shard, mixed protocols allowed.  All groups
share the parent topology's :class:`~repro.sim.network.Network` and
simulator, so cross-shard contention on racks, uplinks and host CPUs is
modelled exactly as it would be for one large group; each group still rides
the multicast fast path because it is built through the unmodified protocol
factories.

Each shard sees a *shard view*: a real :class:`~repro.sim.topology.Topology`
whose datacenters/racks list only that shard's server hosts (and no client
hosts — clients belong to the parent deployment).  Protocol factories are
none the wiser: Canopus derives its super-leaves from the view's racks, Zab
picks its leader from the view's first host, and so on.
"""

from __future__ import annotations

import zlib
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro.protocols import ConsensusProtocol, build_protocol
from repro.runtime.messages import ClientReply, ClientRequest
from repro.shard.partitioner import KeyspacePartitioner
from repro.sim.topology import Datacenter, Rack, Topology

__all__ = ["ShardedCluster", "shard_view", "assign_hosts"]

#: Reply listeners receive ``(shard_id, reply)``.
ReplyListener = Callable[[str, ClientReply], None]


def assign_hosts(server_hosts: Sequence[str], shard_count: int) -> Dict[str, List[str]]:
    """Slice ``server_hosts`` into ``shard_count`` contiguous groups.

    The host list is rack-major (topology builders emit hosts rack by
    rack), so contiguous slices keep each shard's members as rack-local as
    the arithmetic allows — which keeps intra-shard consensus traffic off
    the oversubscribed aggregation uplinks where possible.  When the
    division is uneven the first ``len(hosts) % shard_count`` shards take
    one extra host.
    """
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    if len(server_hosts) < shard_count:
        raise ValueError(
            f"cannot place {shard_count} shards on {len(server_hosts)} server hosts"
        )
    base, extra = divmod(len(server_hosts), shard_count)
    assignment: Dict[str, List[str]] = {}
    cursor = 0
    for index in range(shard_count):
        size = base + (1 if index < extra else 0)
        assignment[f"shard-{index}"] = list(server_hosts[cursor : cursor + size])
        cursor += size
    return assignment


def shard_view(topology: Topology, hosts: Sequence[str], shard_id: str) -> Topology:
    """A topology restricted to ``hosts`` (servers only, no clients)."""
    wanted = set(hosts)
    datacenters: List[Datacenter] = []
    for dc in topology.datacenters:
        racks: List[Rack] = []
        for rack in dc.racks:
            members = [h for h in rack.server_hosts if h in wanted]
            if members:
                racks.append(Rack(name=rack.name, tor=rack.tor, server_hosts=members))
        if racks:
            datacenters.append(
                Datacenter(name=dc.name, region=dc.region, aggregation=dc.aggregation, racks=racks)
            )
    view = Topology(
        network=topology.network,
        simulator=topology.simulator,
        datacenters=datacenters,
        kind=f"{topology.kind}/shard:{shard_id}",
    )
    missing = wanted - set(view.server_hosts)
    if missing:
        raise ValueError(f"hosts {sorted(missing)} are not server hosts of the topology")
    return view


class ShardedCluster:
    """K consensus groups, a partitioner, and one reply dispatch plane."""

    def __init__(
        self,
        topology: Topology,
        partitioner: KeyspacePartitioner,
        shards: Dict[str, ConsensusProtocol],
        assignment: Dict[str, List[str]],
    ) -> None:
        if set(partitioner.shard_ids) != set(shards):
            raise ValueError("partitioner shards and protocol shards disagree")
        self.topology = topology
        self.partitioner = partitioner
        self.shards = shards
        self.assignment = assignment
        self._listeners: List[ReplyListener] = []

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def build(
        cls,
        topology: Topology,
        shard_count: int,
        protocol: Union[str, Sequence[str]] = "canopus",
        config: Any = None,
        assignment: Optional[Dict[str, List[str]]] = None,
        partitioner: Optional[KeyspacePartitioner] = None,
        on_reply: Optional[Callable[[ClientReply], None]] = None,
    ) -> "ShardedCluster":
        """Build ``shard_count`` groups of ``protocol`` on ``topology``.

        ``protocol`` is one registry name for all shards or a sequence of
        names, one per shard (mixed deployments).  ``config`` follows the
        same shape: one config object shared by all shards, or a sequence
        aligned with the protocol sequence.  ``assignment`` pins hosts to
        shards explicitly; the default is :func:`assign_hosts`.
        """
        if assignment is None:
            assignment = assign_hosts(topology.server_hosts, shard_count)
        elif len(assignment) != shard_count:
            raise ValueError("assignment must name exactly shard_count shards")
        shard_ids = list(assignment)
        seen: set = set()
        for shard_id, hosts in assignment.items():
            overlap = seen & set(hosts)
            if overlap:
                raise ValueError(f"hosts {sorted(overlap)} assigned to more than one shard")
            seen |= set(hosts)

        names = [protocol] * shard_count if isinstance(protocol, str) else list(protocol)
        if len(names) != shard_count:
            raise ValueError("need one protocol name per shard")
        configs = list(config) if isinstance(config, (list, tuple)) else [config] * shard_count

        # The per-shard reply hooks close over ``cluster``, which is
        # assigned below — sound because no reply can be dispatched before
        # the cluster is started.
        shards: Dict[str, ConsensusProtocol] = {}
        for shard_id, name, shard_config in zip(shard_ids, names, configs):
            view = shard_view(topology, assignment[shard_id], shard_id)

            def dispatch(reply: ClientReply, _shard: str = shard_id) -> None:
                cluster._dispatch(_shard, reply)

            shards[shard_id] = build_protocol(name, view, config=shard_config, on_reply=dispatch)

        cluster = cls(
            topology=topology,
            partitioner=partitioner or KeyspacePartitioner(shard_ids),
            shards=shards,
            assignment=assignment,
        )
        if on_reply is not None:
            cluster.add_reply_listener(lambda _shard, reply: on_reply(reply))
        return cluster

    # ------------------------------------------------------------------
    # Reply plane
    # ------------------------------------------------------------------
    def add_reply_listener(self, listener: ReplyListener) -> None:
        """Register ``listener(shard_id, reply)`` for every shard's replies."""
        self._listeners.append(listener)

    def remove_reply_listener(self, listener: ReplyListener) -> None:
        """Unregister a listener (short-lived taps must clean up after
        themselves — the reply plane runs every listener on every reply)."""
        if listener in self._listeners:
            self._listeners.remove(listener)

    def _dispatch(self, shard_id: str, reply: ClientReply) -> None:
        for listener in self._listeners:
            listener(shard_id, reply)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        for shard in self.shards.values():
            shard.start()

    def stop(self) -> None:
        for shard in self.shards.values():
            shard.stop()

    def attach_tracer(self, tracer) -> None:
        """Install an observability hook on every shard protocol (and,
        through each node runtime, on the shared network delivery plane)."""
        for shard in self.shards.values():
            shard.attach_tracer(tracer)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    @property
    def shard_ids(self) -> List[str]:
        return list(self.shards)

    def protocol(self, shard_id: str) -> ConsensusProtocol:
        return self.shards[shard_id]

    def shard_of(self, key: str) -> str:
        return self.partitioner.shard_of(key)

    def intake_node(self, shard_id: str, routing_key: str) -> str:
        """Deterministic intake replica for ``routing_key`` within a shard.

        crc32 (never salted ``hash``) spreads client intake across the
        shard's replicas while keeping fixed-seed runs byte-identical.
        """
        nodes = self.shards[shard_id].node_ids()
        return nodes[zlib.crc32(routing_key.encode("utf-8")) % len(nodes)]

    def target_for_key(self, key: str) -> str:
        """The node a single-key operation on ``key`` should be sent to."""
        return self.intake_node(self.shard_of(key), key)

    def submit(self, request: ClientRequest, node_id: Optional[str] = None) -> str:
        """Submit a single-key request to its owning shard; returns the shard id."""
        shard_id = self.shard_of(request.key)
        target = node_id if node_id is not None else self.intake_node(shard_id, request.key)
        self.shards[shard_id].submit(request, node_id=target)
        return shard_id

    # ------------------------------------------------------------------
    # Introspection / aggregation
    # ------------------------------------------------------------------
    def committed_logs(self) -> Dict[str, List[int]]:
        """Per-replica commit logs keyed ``"<shard>:<node>"`` (flat view)."""
        logs: Dict[str, List[int]] = {}
        for shard_id, protocol in self.shards.items():
            for node_id, log in protocol.committed_logs().items():
                logs[f"{shard_id}:{node_id}"] = log
        return logs

    def per_shard_committed_logs(self) -> Dict[str, Dict[str, List[int]]]:
        return {shard_id: protocol.committed_logs() for shard_id, protocol in self.shards.items()}

    def per_shard_stats(self) -> Dict[str, Dict[str, int]]:
        return {shard_id: protocol.stats() for shard_id, protocol in self.shards.items()}

    def stats(self) -> Dict[str, int]:
        """Aggregate counters over all shards (same shape as one protocol's)."""
        totals: Dict[str, int] = {}
        for stats in self.per_shard_stats().values():
            for key, value in stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def is_healthy(self) -> bool:
        return all(protocol.is_healthy() for protocol in self.shards.values())

    def __repr__(self) -> str:
        kinds = {shard_id: protocol.name for shard_id, protocol in self.shards.items()}
        return f"<ShardedCluster shards={kinds}>"
