"""Raft-replicated key-value service — the registry's "fifth protocol".

This module is the template for adding a protocol to the comparison: it is
one self-contained file that (a) builds a client-facing node out of an
existing state machine (:class:`repro.raft.node.RaftNode`, which Canopus
already uses for its super-leaf broadcast), (b) hands one node per server
host to a :class:`ConsensusProtocol` adapter, and (c) registers a factory
under a string key, which its row in
:data:`repro.protocols.registry.BUILTIN_PROTOCOLS` maps to this module.
Nothing in :mod:`repro.bench` or :mod:`repro.workload` knows it exists,
yet ``build_protocol("raft", topology)`` and every experiment, conformance
test and determinism check work against it unchanged.

The service deploys a single Raft group spanning every server host, with
the first host as the initial leader (no cold-start election).  Writes are
forwarded to the leader, which replicates them through the Raft log;
replies to forwarded writes are sent by the forwarding node once the entry
commits locally, so clients talk only to their own server — the same
intake pattern as the other four systems.

Reads support three consistency modes (:class:`RaftKVConfig.read_mode`,
switchable at runtime through ``protocol.set_read_mode``):

* ``read_index`` (default, linearizable) — the Raft §6.4 read index.  A
  follower forwards the read to the leader; the leader captures its commit
  index and confirms its term with a heartbeat quorum
  (:meth:`repro.raft.node.RaftNode.confirm_leadership`) before serving the
  read from its applied state.  In this implementation entries are applied
  the moment the commit index advances, so once the quorum confirms, the
  leader's store already covers the captured index.
* ``lease`` (linearizable under the lease clock assumption) — the leader
  serves immediately while its lease
  (:meth:`repro.raft.node.RaftNode.lease_valid`) covers the current
  moment, and falls back to a read-index round otherwise.  Lease
  arithmetic runs entirely in simulated time, so fixed-seed runs stay
  byte-identical.
* ``local`` (sequential) — the pre-fix ZooKeeper-style path: any replica
  answers from its own store, which can serve stale values while a commit
  is still propagating.  Kept for the paper's baseline comparison and for
  the stale-read regression tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.kvstore.store import KVStore
from repro.protocols.base import ConsensusProtocol
from repro.protocols.registry import register_protocol
from repro.raft.log import LogEntry
from repro.raft.messages import AppendEntries, AppendEntriesReply, RequestVote, RequestVoteReply
from repro.raft.node import RaftConfig, RaftNode
from repro.runtime.base import Runtime
from repro.runtime.messages import ClientReply, ClientRequest
from repro.sim.topology import Topology

__all__ = ["READ_MODES", "RaftKVConfig", "RaftKVNode", "RaftKVProtocol", "build_raft_kv"]

_GROUP_ID = "raft-kv"


#: Read modes the service supports, mapped to their consistency level;
#: the first entry is the default.
READ_MODES: Dict[str, str] = {
    "read_index": "linearizable",
    "lease": "linearizable",
    "local": "sequential",
}


@dataclass
class RaftKVConfig:
    """Tuning knobs of the Raft-replicated KV service."""

    heartbeat_interval_s: float = 0.02
    election_timeout_min_s: float = 0.15
    election_timeout_max_s: float = 0.3
    #: One of :data:`READ_MODES`: "read_index", "lease" or "local".
    read_mode: str = "read_index"


@dataclass(slots=True)
class _WriteForward:
    """A write travelling from the intake node to the Raft leader."""

    origin: str
    request: ClientRequest
    hops: int = 0

    def wire_size(self) -> int:
        return self.request.wire_size() + 24


@dataclass(slots=True)
class _ReadForward:
    """A read travelling from the intake node to the Raft leader.

    ``client`` names the endpoint the reply must reach (the client host
    that sent the read to the intake node); the leader replies to it
    directly once the read is safe to serve.
    """

    client: str
    request: ClientRequest
    hops: int = 0

    def wire_size(self) -> int:
        return self.request.wire_size() + 24


class RaftKVNode:
    """One replica: a Raft group member plus ZooKeeper-style client intake."""

    def __init__(
        self,
        runtime: Runtime,
        members: Sequence[str],
        config: Optional[RaftKVConfig] = None,
        on_reply: Optional[Callable[[ClientReply], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.node_id = runtime.node_id
        self.members = list(members)
        self.config = config or RaftKVConfig()
        self.on_reply = on_reply

        self.store = KVStore()
        self.committed: List[ClientRequest] = []
        self.request_senders: Dict[int, str] = {}
        self.read_mode = self.config.read_mode
        if self.read_mode not in READ_MODES:
            supported = ", ".join(READ_MODES)
            raise ValueError(f"unknown read_mode {self.read_mode!r}; supported: {supported}")
        self.stats = {
            "reads_served": 0,
            "writes_committed": 0,
            "forwards_sent": 0,
            "read_forwards_sent": 0,
            "read_index_rounds": 0,
            "lease_reads_served": 0,
        }
        self.crashed = False
        #: Observability hook (repro.obs.Tracer) + phase label; None = off,
        #: one attribute load per instrumented point.
        self._obs = None
        self._obs_proto = "raft"

        self.raft = RaftNode(
            runtime,
            group_id=_GROUP_ID,
            members=self.members,
            apply=self._apply,
            config=RaftConfig(
                heartbeat_interval_s=self.config.heartbeat_interval_s,
                election_timeout_min_s=self.config.election_timeout_min_s,
                election_timeout_max_s=self.config.election_timeout_max_s,
                initial_leader=self.members[0],
            ),
        )
        #: Per-type handler table replacing the delivery isinstance chain;
        #: raft's own message types route straight to the group (it is the
        #: only group behind this endpoint, so ``handles`` reduces to a
        #: group-id check done by the raft node itself).
        self._dispatch = {
            ClientRequest: self._on_client_request,
            _WriteForward: self._on_write_forward,
            _ReadForward: self._on_read_forward,
            RequestVote: self._on_raft_message,
            RequestVoteReply: self._on_raft_message,
            AppendEntries: self._on_raft_message,
            AppendEntriesReply: self._on_raft_message,
        }
        runtime.set_handler(self.on_message)

    # ------------------------------------------------------------------
    def start(self) -> None:  # symmetry with the other protocol nodes
        return None

    def stop(self) -> None:
        self.raft.stop()

    # ------------------------------------------------------------------
    def submit(self, request: ClientRequest, sender: Optional[str] = None) -> None:
        self._on_client_request(sender or self.node_id, request)

    def on_message(self, sender: str, message: Any) -> None:
        if self.crashed:
            return
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(sender, message)

    def _on_raft_message(self, sender: str, message: Any) -> None:
        if message.group_id == self.raft.group_id:
            self.raft.on_message(sender, message)

    def _on_write_forward(self, sender: str, message: "_WriteForward") -> None:
        if self.raft.is_leader:
            if self._obs is not None:
                rid = message.request.request_id
                self._obs.phase_begin(
                    self._obs_proto, "replicate", self.node_id, key=rid, request_ids=(rid,)
                )
            self.raft.propose((message.origin, message.request))
        elif message.hops < len(self.members):
            # Leadership moved since the origin forwarded: chase the
            # current view, bounded so stale views cannot loop forever.
            message.hops += 1
            leader = self.raft.leader_id or self.members[0]
            if leader != self.node_id:
                self.transport.send(leader, message, message.wire_size())

    def _on_read_forward(self, sender: str, message: "_ReadForward") -> None:
        if self.raft.is_leader:
            self._leader_read(message.client, message.request)
        elif message.hops < len(self.members):
            message.hops += 1
            leader = self.raft.leader_id or self.members[0]
            if leader != self.node_id:
                self.transport.send(leader, message, message.wire_size())
            else:
                # The chase ended at a non-leader: fall back to the
                # serve path, which waits out the election and retries.
                self._serve_read(message.client, message.request)

    def _on_client_request(self, sender: str, request: ClientRequest) -> None:
        request.submitted_at = request.submitted_at or self.runtime.now()
        if request.is_read():
            self._serve_read(sender, request)
            return
        # Only writes wait for a commit, so only they need the sender map.
        self.request_senders[request.request_id] = sender
        if self.raft.is_leader:
            if self._obs is not None:
                rid = request.request_id
                self._obs.phase_begin(
                    self._obs_proto, "replicate", self.node_id, key=rid, request_ids=(rid,)
                )
            self.raft.propose((self.node_id, request))
        else:
            leader = self.raft.leader_id or self.members[0]
            forward = _WriteForward(origin=self.node_id, request=request)
            self.stats["forwards_sent"] += 1
            self.transport.send(leader, forward, forward.wire_size())

    # -- Reads ----------------------------------------------------------
    def _serve_read(self, client: str, request: ClientRequest) -> None:
        if self.read_mode == "local":
            # ZooKeeper-style: answer from the local replica, no matter how
            # far behind the leader's committed state it is.
            self._finish_read(client, request)
            return
        if self.raft.is_leader:
            self._leader_read(client, request)
            return
        leader = self.raft.leader_id or self.members[0]
        if leader == self.node_id:
            # Mid-election view: we are the fallback leader by position but
            # not (or no longer) the leader in fact.  Unlike a write — whose
            # loss the intake pattern already tolerates — a read has no
            # commit to anchor a reply to, so retry once the election has
            # had time to resolve rather than dropping it.
            self.runtime.after(
                self.config.election_timeout_min_s,
                lambda: None if self.crashed else self._serve_read(client, request),
            )
            return
        forward = _ReadForward(client=client, request=request)
        self.stats["read_forwards_sent"] += 1
        self.transport.send(leader, forward, forward.wire_size())

    def _leader_read(self, client: str, request: ClientRequest) -> None:
        if self.read_mode == "lease" and self.raft.lease_valid():
            # Clock-bound fast path: the lease rules out a rival leader, so
            # the local committed state is the linearizable state.
            self.stats["lease_reads_served"] += 1
            if self._obs is not None:
                self._obs.phase_point(
                    self._obs_proto, "lease_read", self.node_id,
                    key=request.request_id, request_ids=(request.request_id,),
                )
            self._finish_read(client, request)
            return
        # Read index: capture happens implicitly — entries are applied the
        # moment the commit index advances, so the store already reflects
        # every index committed before this round once the quorum confirms.
        self.stats["read_index_rounds"] += 1
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "read_index", self.node_id,
                key=request.request_id, request_ids=(request.request_id,),
            )

        def on_confirm(confirmed: bool) -> None:
            # A stopped node fails confirmations synchronously while still
            # reporting is_leader — re-serving would recurse forever.
            if self.crashed or self.raft.stopped:
                return
            if self._obs is not None:
                self._obs.phase_end(
                    self._obs_proto, "read_index", self.node_id, key=request.request_id
                )
            if confirmed:
                self._finish_read(client, request)
            else:
                # Leadership moved mid-round: chase the current leader.
                self._serve_read(client, request)

        self.raft.confirm_leadership(on_confirm)

    def _finish_read(self, client: str, request: ClientRequest) -> None:
        value = self.store.read(request.key)
        self.stats["reads_served"] += 1
        self._reply(client, request, value)

    # ------------------------------------------------------------------
    def _apply(self, entry: LogEntry) -> None:
        origin, request = entry.command
        self.store.write(request.key, request.value or "")
        self.committed.append(request)
        self.stats["writes_committed"] += 1
        if self._obs is not None:
            # Closes the proposing leader's replicate span; a no-op on the
            # other replicas (phase_end tolerates a missing key).
            self._obs.phase_end(self._obs_proto, "replicate", self.node_id, key=request.request_id)
        if origin == self.node_id:
            sender = self.request_senders.pop(request.request_id, None)
            if sender is not None:
                self._reply(sender, request, request.value, committed_index=entry.index)

    def _reply(
        self,
        sender: str,
        request: ClientRequest,
        value: Optional[str],
        committed_index: int = 0,
    ) -> None:
        reply = ClientReply(
            request_id=request.request_id,
            client_id=request.client_id,
            op=request.op,
            key=request.key,
            value=value,
            committed_cycle=committed_index,
            completed_at=self.runtime.now(),
            server_id=self.node_id,
        )
        if self.on_reply is not None:
            self.on_reply(reply)
        if sender and sender != self.node_id:
            self.transport.send(sender, reply, reply.wire_size())

    def committed_order(self) -> List[int]:
        return [request.request_id for request in self.committed]


class RaftKVProtocol(ConsensusProtocol):
    """Adapter exposing the Raft KV service through the shared contract."""

    name = "raft"

    read_modes = READ_MODES

    def committed_log(self, node_id: str) -> List[int]:
        return self.node(node_id).committed_order()

    def leader_id(self) -> str:
        return next(iter(self.nodes.values())).members[0]

    def _apply_read_mode(self, mode: str) -> None:
        for node in self.nodes.values():
            node.read_mode = mode


@register_protocol(
    "raft",
    config_cls=RaftKVConfig,
    description="Raft-replicated KV store (single group, read-index/lease reads)",
)
def build_raft_kv(
    topology: Topology,
    config: Optional[RaftKVConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> RaftKVProtocol:
    config = config or RaftKVConfig()
    servers = topology.server_hosts
    nodes: Dict[str, RaftKVNode] = {}
    for node_id in servers:
        runtime = topology.make_runtime(node_id)
        nodes[node_id] = RaftKVNode(runtime, servers, config=config, on_reply=on_reply)
    protocol = RaftKVProtocol(topology, nodes)
    protocol.set_read_mode(config.read_mode)
    return protocol
