"""Raft-based reliable broadcast within a super-leaf (§4.3).

Every super-leaf member creates its own dedicated Raft group and is the
initial leader of that group; all other members are followers.  A node
broadcasts a payload by appending it to its own group's log; the payload is
delivered at each member when the entry commits on that member: 3(n-1)
messages and three hops (entry, acks, commit notice).  If a node fails, the
other members of its group elect a new leader, which completes any
incomplete replication, after which the group is retired.

A payload broadcast with ``agreed=True`` is an *unacknowledged append* to
the same log (:meth:`repro.raft.node.RaftNode.propose`): n-1 messages and
one hop, delivered when a member appends it.  A lost copy is found by the
consistency check of whatever the group sends next and resent with it; a
copy that only a minority held when the sender died may never reach the
rest, which is the gap the caller of ``agreed=True`` takes on.

Reliable broadcast therefore tolerates F failures with 2F+1 members — if
more than F members of a super-leaf fail, the super-leaf fails and the
consensus process halts, matching the paper.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.broadcast.base import ReliableBroadcast
from repro.raft.log import LogEntry
from repro.raft.messages import RAFT_MESSAGE_TYPES, AppendEntries
from repro.raft.node import RaftConfig, RaftNode
from repro.runtime.base import Runtime

__all__ = ["RaftBroadcast"]


class _ForwardedBroadcast:
    """Payload forwarded to the current leader of the sender's group."""

    __slots__ = ("group_id", "payload")

    def __init__(self, group_id: str, payload: Any) -> None:
        self.group_id = group_id
        self.payload = payload

    def wire_size(self) -> int:
        inner = getattr(self.payload, "wire_size", None)
        return (int(inner()) if callable(inner) else 64) + 24


class RaftBroadcast(ReliableBroadcast):
    """One Raft group per super-leaf member, demultiplexed by group id."""

    message_types = RAFT_MESSAGE_TYPES + (_ForwardedBroadcast,)

    def __init__(
        self,
        runtime: Runtime,
        peers: Sequence[str],
        deliver: Callable[[str, Any], None],
        first_sight: Optional[Callable[[Any], None]] = None,
        raft_config: RaftConfig | None = None,
    ) -> None:
        super().__init__(runtime, peers, deliver, first_sight)
        # Broadcast groups do not need aggressive heartbeats: the leader
        # sends a commit notice as soon as a majority holds an entry, and
        # Canopus runs its own failure detector.  The heartbeat only has to
        # repair a lost notice or a lagging log, so a slow one keeps idle
        # traffic low.
        self._raft_config = raft_config or RaftConfig(
            heartbeat_interval_s=0.1,
            election_timeout_min_s=0.3,
            election_timeout_max_s=0.6,
        )
        self.groups: Dict[str, RaftNode] = {}
        #: The same nodes keyed by the group id their messages carry.
        self._by_group_id: Dict[str, RaftNode] = {}
        members = sorted(set(list(self.peers) + [self.node_id]))
        for owner in members:
            self._create_group(owner, members)

    # ------------------------------------------------------------------
    def _group_id(self, owner: str) -> str:
        return f"slbc:{owner}"

    def _create_group(self, owner: str, members: Sequence[str]) -> None:
        group_id = self._group_id(owner)
        config = RaftConfig(
            heartbeat_interval_s=self._raft_config.heartbeat_interval_s,
            election_timeout_min_s=self._raft_config.election_timeout_min_s,
            election_timeout_max_s=self._raft_config.election_timeout_max_s,
            initial_leader=owner,
        )
        deliver = self.deliver

        def apply(entry: LogEntry) -> None:
            self.payloads_delivered += 1
            deliver(owner, entry.command)

        node = RaftNode(
            runtime=self.runtime,
            group_id=group_id,
            members=list(members),
            apply=apply,
            config=config,
        )
        self.groups[owner] = node
        self._by_group_id[group_id] = node

    # ------------------------------------------------------------------
    # ReliableBroadcast interface
    # ------------------------------------------------------------------
    def broadcast(self, payload: Any, agreed: bool = False) -> None:
        self.broadcasts_sent += 1
        own_group = self.groups[self.node_id]
        if not own_group.is_leader:
            # After a failure/recovery our group may have elected another
            # leader; re-assert leadership lazily by routing through it
            # (always at the full service level: ``agreed`` is a permission).
            leader = own_group.leader_id or self.node_id
            if leader != self.node_id and leader in self.peers:
                # Fall back to delivering via the current leader of our group.
                self.transport.send(leader, _ForwardedBroadcast(self._group_id(self.node_id), payload))
                return
        own_group.propose(payload, acknowledged=not agreed)

    def on_message(self, sender: str, message: Any) -> None:
        group = self._by_group_id.get(message.group_id)
        if group is None:
            return
        cls = message.__class__
        if cls is AppendEntries:
            if self.first_sight is not None:
                for entry in message.entries:
                    if entry.acknowledged:  # the others are delivered on arrival
                        self.first_sight(entry.command)
        elif cls is _ForwardedBroadcast:
            if group.is_leader:
                group.propose(message.payload)
            return
        group.on_message(sender, message)

    def remove_peer(self, peer: str) -> None:
        if peer in self.peers:
            self.peers.remove(peer)
        # Remove the failed member from every group; its own group keeps
        # running so a new leader can finish incomplete replication.
        for group in self.groups.values():
            group.remove_member(peer)

    def add_peer(self, peer: str) -> None:
        super().add_peer(peer)
        members = sorted(set(list(self.peers) + [self.node_id]))
        if peer not in self.groups:
            self._create_group(peer, members)
        for group in self.groups.values():
            group.add_member(peer)

    def stop(self) -> None:
        for group in self.groups.values():
            group.stop()
