"""Membership maintenance: failure detection, join/leave, emulation table.

The paper keeps the emulation table consistent by piggybacking membership
changes on proposal messages (§4.6): failures detected by the intra-super-
leaf failure detector during cycle ``c`` are listed in the round-1 proposals
of cycle ``c+1``; at the end of that cycle every node has the same set of
updates and applies them to its emulation table, so every node enters cycle
``c+2`` with the same membership view.

This module provides the heartbeat-based failure detector used within a
super-leaf and the bookkeeping for pending membership updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Set

from repro.canopus.messages import MembershipUpdate
from repro.runtime.base import Runtime, Timer

__all__ = ["Heartbeat", "JoinRequest", "FailureDetector", "MembershipManager"]


@dataclass(slots=True)
class Heartbeat:
    """Periodic liveness beacon exchanged between super-leaf peers."""

    sender: str
    sent_at: float

    def wire_size(self) -> int:
        return 24


@dataclass(slots=True)
class JoinRequest:
    """Request from a (re)joining node to the members of its super-leaf."""

    node_id: str
    super_leaf: str

    def wire_size(self) -> int:
        return 48


class FailureDetector:
    """Heartbeat/timeout failure detector within one super-leaf (§3.6, §4.6)."""

    def __init__(
        self,
        runtime: Runtime,
        peers: List[str],
        heartbeat_interval_s: float,
        failure_timeout_s: float,
        on_failure: Callable[[str], None],
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.peers = list(peers)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.failure_timeout_s = failure_timeout_s
        self.on_failure = on_failure
        self._last_seen: Dict[str, float] = {peer: runtime.now() for peer in peers}
        #: This node's own view lease (see :meth:`in_view`).  Peers start
        #: their silence clock for this node now, as this node does for them.
        self._in_view_until = runtime.now() + failure_timeout_s - heartbeat_interval_s
        self._suspected: Set[str] = set()
        self._timers: List[Timer] = []
        self.started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self.started:
            return
        self.started = True
        self._timers.append(self.runtime.periodic(self.heartbeat_interval_s, self._send_heartbeats))
        self._timers.append(self.runtime.periodic(self.heartbeat_interval_s, self._check_peers))

    def stop(self) -> None:
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self.started = False

    # ------------------------------------------------------------------
    def _send_heartbeats(self) -> None:
        now = self.runtime.now()
        if now <= self._in_view_until:
            self._in_view_until = now + self.failure_timeout_s - self.heartbeat_interval_s
        beat = Heartbeat(sender=self.runtime.node_id, sent_at=now)
        alive = [peer for peer in self.peers if peer not in self._suspected]
        self.transport.broadcast(alive, beat, beat.wire_size())

    def _check_peers(self) -> None:
        now = self.runtime.now()
        for peer in list(self.peers):
            if peer in self._suspected:
                continue
            if now - self._last_seen.get(peer, 0.0) > self.failure_timeout_s:
                self._suspected.add(peer)
                self.on_failure(peer)

    def in_view(self) -> bool:
        """True while no peer can have timed this node out.

        A peer suspects this node only after ``failure_timeout_s`` of
        silence, so each heartbeat sent while the lease still holds extends
        it to one heartbeat interval short of that (the slack absorbs
        delivery jitter).  A node that stalls past the lease may have been
        excluded without knowing it; the lease then stays lapsed, because a
        peer that excluded this node does not take it back on hearing from
        it again.  Like any lease it assumes the members' clocks run at
        the same rate.
        """
        return not self.peers or self.runtime.now() <= self._in_view_until

    # ------------------------------------------------------------------
    def observe(self, sender: str) -> None:
        """Record any message from ``sender`` as evidence of liveness."""
        self._last_seen[sender] = self.runtime.now()

    def handles(self, message: object) -> bool:
        return isinstance(message, Heartbeat)

    def on_message(self, sender: str, message: Heartbeat) -> None:
        self.observe(sender)

    def suspect(self, peer: str) -> None:
        self._suspected.add(peer)

    def is_suspected(self, peer: str) -> bool:
        return peer in self._suspected

    def clear(self, peer: str) -> None:
        self._suspected.discard(peer)
        self._last_seen[peer] = self.runtime.now()

    def add_peer(self, peer: str) -> None:
        if peer not in self.peers:
            self.peers.append(peer)
        self._last_seen[peer] = self.runtime.now()
        self._suspected.discard(peer)

    def remove_peer(self, peer: str) -> None:
        if peer in self.peers:
            self.peers.remove(peer)
        self._suspected.discard(peer)
        self._last_seen.pop(peer, None)


class MembershipManager:
    """Pending membership updates and their application to the emulation table."""

    def __init__(self, super_leaf_name: str) -> None:
        self.super_leaf_name = super_leaf_name
        self._pending: List[MembershipUpdate] = []
        self.applied: List[MembershipUpdate] = []

    # ------------------------------------------------------------------
    def note_failure(self, node_id: str) -> MembershipUpdate:
        update = MembershipUpdate(action="delete", node_id=node_id, super_leaf=self.super_leaf_name)
        if update not in self._pending:
            self._pending.append(update)
        return update

    def note_join(self, node_id: str) -> MembershipUpdate:
        update = MembershipUpdate(action="add", node_id=node_id, super_leaf=self.super_leaf_name)
        if update not in self._pending:
            self._pending.append(update)
        return update

    def take_pending(self) -> List[MembershipUpdate]:
        """Drain the updates to be piggybacked on the next round-1 proposal."""
        pending, self._pending = self._pending, []
        return pending

    @property
    def has_pending(self) -> bool:
        return bool(self._pending)

    # ------------------------------------------------------------------
    def apply_committed(self, updates, emulation_table, live_view: Set[str]) -> None:
        """Apply the updates agreed in a committed cycle.

        ``live_view`` is the node's current set of live super-leaf members
        (its own super-leaf only); the emulation table covers the whole LOT.
        """
        for update in updates:
            self.applied.append(update)
            if update.action == "delete":
                emulation_table.remove_node(update.node_id)
                live_view.discard(update.node_id)
            elif update.action == "add":
                emulation_table.add_node(update.node_id)
                if update.super_leaf == self.super_leaf_name:
                    live_view.add(update.node_id)
