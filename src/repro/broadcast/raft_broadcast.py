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

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

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


class RaftBroadcast:
    """Reliable broadcast among the members of one super-leaf: one Raft group
    per member, demultiplexed by group id.

    Two service levels, chosen per payload by the caller:

    * ``broadcast(payload)`` — the guarantees of assumption A4 of the paper:
      validity, integrity and agreement.  If any correct member delivers the
      payload every correct member does, and such payloads from one origin
      are delivered in the order they were broadcast.  This is what a
      payload needs when delivering it *decides* something (which new
      requests a round-1 proposal adds to a cycle).
    * ``broadcast(payload, agreed=True)`` — the caller states that agreement
      on this payload already exists (every copy of it is the same and
      acting on one early is safe), and permits best effort: one copy per
      peer, nobody acknowledges, delivered on arrival and at the sender at
      once.  Integrity still holds (at most once per member) and such
      payloads keep their order among themselves, but they may overtake
      payloads of the other level, and if the sender fails mid-send only
      some members may deliver.  The caller owns that gap.  A member that
      no longer leads its own group forwards the payload to the group's
      leader at the full level: ``agreed`` is a permission.

    A payload whose group has no leader this member knows of — its own
    group after it was deposed, or a group a forwarded payload names — is
    held, not dropped, and proposed or forwarded once the group has one.
    Held payloads keep their order, and a broadcast made while the own
    group holds any joins the queue behind them.

    ``first_sight`` is a hint, not a delivery: a follower calls it with
    every full-level payload an arriving AppendEntries carries, before the
    entry commits.  It may fire more than once for a payload, for one that
    is never delivered, and in any order; it never fires for an ``agreed``
    payload, whose arrival is its delivery.

    The owner routes a message to :meth:`on_message` by its class alone:
    every class this layer receives is listed in ``message_types``, and a
    class missing there is never delivered.
    """

    #: The message classes this layer receives, for the owner's per-type
    #: dispatch table.
    message_types = RAFT_MESSAGE_TYPES + (_ForwardedBroadcast,)

    def __init__(
        self,
        runtime: Runtime,
        peers: Sequence[str],
        deliver: Callable[[str, Any], None],
        first_sight: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.node_id = runtime.node_id
        self.peers: List[str] = [p for p in peers if p != runtime.node_id]
        self.deliver = deliver
        self.first_sight = first_sight
        self.broadcasts_sent = 0
        self.payloads_delivered = 0
        self.groups: Dict[str, RaftNode] = {}
        #: The same nodes keyed by the group id their messages carry.
        self._by_group_id: Dict[str, RaftNode] = {}
        #: Group id -> the ``(payload, agreed)`` pairs waiting for that
        #: group to have a leader, in broadcast order.
        self._held: Dict[str, Deque[Tuple[Any, bool]]] = {}
        members = sorted(set(list(self.peers) + [self.node_id]))
        for owner in members:
            self._create_group(owner, members)

    # ------------------------------------------------------------------
    def _group_id(self, owner: str) -> str:
        return f"slbc:{owner}"

    def _create_group(self, owner: str, members: Sequence[str]) -> None:
        group_id = self._group_id(owner)
        # Broadcast groups do not need aggressive heartbeats: the leader
        # sends a commit notice as soon as a majority holds an entry, and
        # Canopus runs its own failure detector.  The heartbeat only has to
        # repair a lost notice or a lagging log, so a slow one keeps idle
        # traffic low.
        config = RaftConfig(
            heartbeat_interval_s=0.1,
            election_timeout_min_s=0.3,
            election_timeout_max_s=0.6,
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
    def broadcast(self, payload: Any, agreed: bool = False) -> None:
        """Broadcast ``payload`` to all super-leaf members (incl. self).

        ``agreed`` selects the service level (see the class docstring).
        """
        self.broadcasts_sent += 1
        own_group = self.groups[self.node_id]
        if own_group.is_leader and not self._held:
            own_group.propose(payload, acknowledged=not agreed)  # the steady state
        else:
            self._offer(own_group, payload, agreed)

    def on_message(self, sender: str, message: Any) -> None:
        """Process a message of one of the ``message_types``."""
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
            self._offer(group, message.payload, False)
            return
        group.on_message(sender, message)
        if message.group_id in self._held:
            self._release(group)

    def _take(self, group: RaftNode, payload: Any, agreed: bool) -> bool:
        """Propose ``payload`` in ``group`` if this member leads it, else
        forward it to the leader the group names (always at the full level:
        ``agreed`` is a permission); False when the group has no known
        leader to take it."""
        if group.is_leader:
            group.propose(payload, acknowledged=not agreed)
            return True
        leader = group.leader_id
        if leader not in self.peers:  # none known, or one that left the super-leaf
            return False
        self.transport.send(leader, _ForwardedBroadcast(group.group_id, payload))
        return True

    def _offer(self, group: RaftNode, payload: Any, agreed: bool) -> None:
        """Queue ``payload`` behind whatever ``group`` holds, then hand on
        as much of the queue as the group can take now."""
        self._held.setdefault(group.group_id, deque()).append((payload, agreed))
        self._release(group)

    def _release(self, group: RaftNode) -> None:
        """Hand on ``group``'s held payloads, in order, while it has a leader."""
        held = self._held[group.group_id]
        while held:
            # Popped before it is taken: proposing applies an agreed payload
            # at once, and the deliver callback may broadcast (and release)
            # again.
            item = held.popleft()
            if not self._take(group, *item):
                held.appendleft(item)
                return
        if self._held.get(group.group_id) is held:  # a nested release may have gone first
            del self._held[group.group_id]

    def remove_peer(self, peer: str) -> None:
        """Drop a failed peer from the broadcast group."""
        if peer in self.peers:
            self.peers.remove(peer)
        # Remove the failed member from every group; its own group keeps
        # running so a new leader can finish incomplete replication.
        for group in self.groups.values():
            group.remove_member(peer)

    def stop(self) -> None:
        self._held.clear()
        for group in self.groups.values():
            group.stop()
