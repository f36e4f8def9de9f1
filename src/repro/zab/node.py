"""ZooKeeper-style replica using Zab atomic broadcast for writes.

Roles match the paper's ZooKeeper configuration:

* **Leader** — receives every write (clients attached to other replicas
  forward theirs), assigns zxids, and runs the two-phase broadcast:
  PROPOSAL to followers, commit after a quorum of ACKs, COMMIT to
  followers, INFORM to observers.
* **Follower** — participates in the broadcast quorum, applies committed
  transactions, answers local reads, forwards local writes to the leader.
* **Observer** — does not vote; applies committed transactions from INFORM
  packets, answers local reads, forwards local writes.

Every request funnels through the single leader, so the leader's CPU and
its rack uplink become the throughput ceiling — the effect Figure 5
demonstrates and ZKCanopus removes.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.canopus.messages import ClientReply, ClientRequest
from repro.kvstore.persistence import PersistenceModel, StorageDevice
from repro.kvstore.store import KVStore
from repro.runtime.base import Runtime, Timer
from repro.sim.topology import Topology
from repro.zab.messages import WriteForward, ZabAck, ZabCommit, ZabInform, ZabProposal

__all__ = ["ZabRole", "ZabConfig", "ZabNode", "ZabCluster", "build_zab_sim_cluster"]


class ZabRole(enum.Enum):
    LEADER = "leader"
    FOLLOWER = "follower"
    OBSERVER = "observer"


@dataclass
class ZabConfig:
    """Configuration of the ZooKeeper ensemble."""

    #: Number of voting followers (the paper uses five; the rest observe).
    follower_count: int = 5
    #: Batching window before forwarding/proposing writes.  ZooKeeper issues
    #: one proposal per request, so the default is no batching; a positive
    #: window can be set to explore leader-side batching.
    batch_duration_s: float = 0.0
    #: Maximum transactions per proposal (1 = ZooKeeper's per-request Zab).
    max_batch_size: int = 1
    #: Storage backend for the transaction log (§8.1 in-memory vs SSD).
    storage: StorageDevice = StorageDevice.MEMORY


@dataclass(slots=True)
class _PendingTxn:
    """A proposed transaction, kept until it commits."""

    zxid: int
    origin: str
    requests: Tuple[ClientRequest, ...]
    #: Who has acknowledged it; only the leader counts acks.
    acks: Optional[Set[str]] = None


class ZabNode:
    """One replica of the ZooKeeper ensemble."""

    def __init__(
        self,
        runtime: Runtime,
        role: ZabRole,
        leader_id: str,
        followers: Sequence[str],
        observers: Sequence[str],
        config: Optional[ZabConfig] = None,
        on_reply: Optional[Callable[[ClientReply], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.node_id = runtime.node_id
        self.role = role
        self.leader_id = leader_id
        self.followers = list(followers)
        self.observers = list(observers)
        self.config = config or ZabConfig()
        self.on_reply = on_reply

        self.store = KVStore()
        self.log = PersistenceModel(device=self.config.storage)

        self.next_zxid = 0
        self.pending_txns: Dict[int, _PendingTxn] = {}
        self.last_committed_zxid = 0
        self.committed_requests: List[ClientRequest] = []

        #: Writes received from local clients, waiting to be forwarded/batched.
        self.outstanding: List[ClientRequest] = []
        self.request_senders: Dict[int, str] = {}
        self._batch_timer: Optional[Timer] = None

        self.stats = {
            "reads_served": 0,
            "writes_committed": 0,
            "proposals_sent": 0,
            "forwards_sent": 0,
        }
        self.crashed = False
        #: Observability hook (repro.obs.Tracer) + the protocol label its
        #: phase spans carry (the zookeeper adapter's attach_tracer sets
        #: its registry name); None = off, one attribute load per point.
        self._obs = None
        self._obs_proto = "zab"
        #: Per-type handler table replacing the delivery isinstance chain.
        self._dispatch = {
            ClientRequest: self._on_client_request,
            WriteForward: self._on_write_forward,
            ZabProposal: self._on_proposal,
            ZabAck: self._on_ack,
            ZabCommit: self._on_commit,
            ZabInform: self._on_inform,
        }
        runtime.set_handler(self.on_message)

    # ------------------------------------------------------------------
    def start(self) -> None:  # symmetry with the other protocol nodes
        return None

    def stop(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None

    def crash(self) -> None:
        self.crashed = True
        self.stop()

    @property
    def is_leader(self) -> bool:
        return self.role is ZabRole.LEADER

    def quorum_size(self) -> int:
        """Majority of the voting ensemble (leader + followers)."""
        return (len(self.followers) + 1) // 2 + 1

    # ------------------------------------------------------------------
    # Client requests
    # ------------------------------------------------------------------
    def submit(self, request: ClientRequest, sender: Optional[str] = None) -> None:
        self._on_client_request(sender or self.node_id, request)

    def _on_client_request(self, sender: str, request: ClientRequest) -> None:
        if self.crashed:
            return
        request.submitted_at = request.submitted_at or self.runtime.now()
        if request.is_read():
            # ZooKeeper answers reads locally from the replica's state.
            value = self.store.read(request.key)
            self.stats["reads_served"] += 1
            self._reply(sender, request, value, self.last_committed_zxid)
            return
        # Only writes wait for a commit, so only they enter the sender map.
        self.request_senders[request.request_id] = sender
        self.outstanding.append(request)
        if self.config.batch_duration_s <= 0 or len(self.outstanding) >= self.config.max_batch_size:
            self._flush_writes()
        elif self._batch_timer is None:
            self._batch_timer = self.runtime.after(self.config.batch_duration_s, self._flush_writes)

    def _flush_writes(self) -> None:
        if self._batch_timer is not None:
            self._batch_timer.cancel()
            self._batch_timer = None
        if not self.outstanding or self.crashed:
            return
        batch, self.outstanding = self.outstanding, []
        if self.is_leader:
            self._propose(self.node_id, tuple(batch))
        else:
            forward = WriteForward(origin=self.node_id, requests=tuple(batch))
            self.stats["forwards_sent"] += 1
            self.transport.send(self.leader_id, forward, forward.wire_size())

    # ------------------------------------------------------------------
    # Leader side
    # ------------------------------------------------------------------
    def _propose(self, origin: str, requests: Tuple[ClientRequest, ...]) -> None:
        self.next_zxid += 1
        zxid = self.next_zxid
        txn = _PendingTxn(zxid=zxid, origin=origin, requests=requests, acks={self.node_id})
        self.pending_txns[zxid] = txn
        self.log.append(self.runtime.now(), sum(r.wire_size() for r in requests))
        if self._obs is not None:
            self._obs.phase_begin(
                self._obs_proto, "propose", self.node_id, key=zxid,
                request_ids=[request.request_id for request in requests],
            )
        proposal = ZabProposal(zxid=zxid, origin=origin, requests=requests)
        self.stats["proposals_sent"] += 1
        # wire_size() walks the whole request batch, so the broadcast facade
        # computing it once (instead of once per follower) matters here.
        self.transport.broadcast(self.followers, proposal, proposal.wire_size())
        if len(txn.acks) >= self.quorum_size():
            self._leader_commit(txn)

    def _leader_commit(self, txn: _PendingTxn) -> None:
        # Forgotten at commit: a late ack then finds nothing to count.
        del self.pending_txns[txn.zxid]
        if self._obs is not None:
            self._obs.phase_end(self._obs_proto, "propose", self.node_id, key=txn.zxid)
            self._obs.phase_point(
                self._obs_proto, "commit", self.node_id, key=txn.zxid,
                request_ids=[request.request_id for request in txn.requests],
            )
        commit = ZabCommit(zxid=txn.zxid)
        self.transport.broadcast(self.followers, commit, commit.wire_size())
        if self.observers:
            inform = ZabInform(zxid=txn.zxid, origin=txn.origin, requests=txn.requests)
            self.transport.broadcast(self.observers, inform, inform.wire_size())
        self._apply_committed(txn.zxid, txn.origin, txn.requests)

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        if self.crashed:
            return
        handler = self._dispatch.get(message.__class__)
        if handler is not None:
            handler(sender, message)

    def _on_write_forward(self, sender: str, message: WriteForward) -> None:
        if self.is_leader:
            self._propose(message.origin, message.requests)

    def _on_inform(self, sender: str, message: ZabInform) -> None:
        self._apply_committed(message.zxid, message.origin, message.requests)

    def _on_proposal(self, sender: str, message: ZabProposal) -> None:
        # Followers log the proposal, then acknowledge.
        self.pending_txns[message.zxid] = _PendingTxn(
            zxid=message.zxid, origin=message.origin, requests=message.requests
        )
        self.log.append(self.runtime.now(), sum(r.wire_size() for r in message.requests))
        ack = ZabAck(zxid=message.zxid, follower=self.node_id)
        self.transport.send(sender, ack, ack.wire_size())

    def _on_ack(self, sender: str, message: ZabAck) -> None:
        if not self.is_leader:
            return
        txn = self.pending_txns.get(message.zxid)
        if txn is None:
            return
        txn.acks.add(message.follower)
        if len(txn.acks) >= self.quorum_size():
            self._leader_commit(txn)

    def _on_commit(self, sender: str, message: ZabCommit) -> None:
        txn = self.pending_txns.pop(message.zxid, None)
        if txn is None:
            return
        self._apply_committed(txn.zxid, txn.origin, txn.requests)

    # ------------------------------------------------------------------
    # Apply + reply
    # ------------------------------------------------------------------
    def _apply_committed(self, zxid: int, origin: str, requests: Tuple[ClientRequest, ...]) -> None:
        if zxid <= self.last_committed_zxid:
            return
        self.last_committed_zxid = zxid
        if self._obs is not None:
            self._obs.phase_point(
                self._obs_proto, "apply", self.node_id, key=zxid,
                request_ids=[request.request_id for request in requests],
            )
        for request in requests:
            self.store.write(request.key, request.value or "")
            self.committed_requests.append(request)
            self.stats["writes_committed"] += 1
            if origin == self.node_id:
                sender = self.request_senders.pop(request.request_id, None)
                if sender is not None:
                    self._reply(sender, request, request.value, zxid)

    def _reply(self, sender: str, request: ClientRequest, value: Optional[str], zxid: int) -> None:
        reply = ClientReply(
            request_id=request.request_id,
            client_id=request.client_id,
            op=request.op,
            key=request.key,
            value=value,
            committed_cycle=zxid,
            completed_at=self.runtime.now(),
            server_id=self.node_id,
        )
        if self.on_reply is not None:
            self.on_reply(reply)
        if sender and sender != self.node_id:
            self.transport.send(sender, reply, reply.wire_size())


@dataclass
class ZabCluster:
    """A ZooKeeper ensemble: one leader, voting followers, observers."""

    nodes: Dict[str, ZabNode] = field(default_factory=dict)
    leader_id: str = ""
    config: ZabConfig = field(default_factory=ZabConfig)

    def start(self) -> None:
        for node in self.nodes.values():
            node.start()

    def stop(self) -> None:
        for node in self.nodes.values():
            node.stop()

    def node(self, node_id: str) -> ZabNode:
        return self.nodes[node_id]

    def node_ids(self) -> List[str]:
        return list(self.nodes.keys())

    def leader(self) -> ZabNode:
        return self.nodes[self.leader_id]


def build_zab_sim_cluster(
    topology: Topology,
    config: Optional[ZabConfig] = None,
    on_reply: Optional[Callable[[ClientReply], None]] = None,
) -> ZabCluster:
    """Place a ZooKeeper ensemble on the server hosts of ``topology``.

    The first server host becomes the leader, the next ``follower_count``
    hosts become voting followers, and the remainder are observers —
    matching the paper's ZooKeeper configuration (§8.1.2).
    """
    config = config or ZabConfig()
    servers = topology.server_hosts
    if not servers:
        raise ValueError("topology has no server hosts")
    leader_id = servers[0]
    voting = servers[: min(len(servers), config.follower_count + 1)]
    observers = servers[len(voting):]
    cluster = ZabCluster(leader_id=leader_id, config=config)
    for node_id in servers:
        runtime = topology.make_runtime(node_id)
        if node_id == leader_id:
            role = ZabRole.LEADER
        elif node_id in voting:
            role = ZabRole.FOLLOWER
        else:
            role = ZabRole.OBSERVER
        cluster.nodes[node_id] = ZabNode(
            runtime,
            role=role,
            leader_id=leader_id,
            followers=[n for n in voting if n != leader_id],
            observers=observers,
            config=config,
            on_reply=on_reply,
        )
    return cluster
