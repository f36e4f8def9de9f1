"""Membership maintenance: failure detection and the emulation table.

The paper keeps the emulation table consistent by piggybacking membership
changes on proposal messages (§4.6): failures detected by the intra-super-
leaf failure detector during cycle ``c`` are listed in the round-1 proposals
of cycle ``c+1``; at the end of that cycle every node has the same set of
updates and applies them to its emulation table, so every node enters cycle
``c+2`` with the same membership view.  Membership here only shrinks: a
crashed node is deleted and nothing re-admits it (the paper's joins need a
rejoiner to catch up first, and nothing here transfers state).

This module provides the heartbeat-based failure detector used within a
super-leaf and the bookkeeping for pending membership updates.  The detector
also answers the question the read path asks (:meth:`FailureDetector.in_view`):
"can any peer have excluded this node yet?"  Every heartbeat acknowledges
the latest one received from its recipient, and only those acknowledgements
renew a node's view lease — sending proves nothing, a partitioned node sends
just as happily.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.canopus.messages import MembershipUpdate
from repro.runtime.base import Runtime, Timer

__all__ = ["Heartbeat", "FailureDetector", "MembershipManager"]


#: ``Heartbeat.echo`` before the sender has heard any heartbeat of the recipient's.
NEVER = float("-inf")


@dataclass(slots=True)
class Heartbeat:
    """Periodic liveness beacon exchanged between super-leaf peers.

    One copy per recipient: ``echo`` is the ``sent_at`` of the latest
    heartbeat the sender has received *from that recipient* (the transport
    names the sender, so the message does not).
    """

    sent_at: float
    echo: float = NEVER

    def wire_size(self) -> int:
        return 24


class FailureDetector:
    """Heartbeat/timeout failure detector within one super-leaf (§3.6, §4.6).

    It answers two questions.  *Is a peer gone?* — ``failure_timeout_s``
    without any message from it (:meth:`observe`) reports it through
    ``on_failure``, once, and stops the heartbeats to it.  *Can a peer have
    decided that of this node?* — :meth:`in_view`, a lease renewed only by
    what the peers echo back; ``on_in_view`` is called when an echo or a
    committed delete makes a lapsed lease valid again.
    """

    def __init__(
        self,
        runtime: Runtime,
        peers: List[str],
        heartbeat_interval_s: float,
        failure_timeout_s: float,
        on_failure: Callable[[str], None],
        on_in_view: Optional[Callable[[], None]] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.peers = list(peers)
        self.heartbeat_interval_s = heartbeat_interval_s
        self.failure_timeout_s = failure_timeout_s
        self.on_failure = on_failure
        self.on_in_view = on_in_view
        #: When each peer was last heard from, by any message.  The owner's
        #: receive path stores into it directly (one dict store per message);
        #: :meth:`observe` is the same store for everyone else.
        self.last_seen: Dict[str, float] = {peer: runtime.now() for peer in peers}
        #: ``sent_at`` of the latest heartbeat received from each peer: what
        #: the next heartbeat to that peer echoes.
        self._heard: Dict[str, float] = {}
        #: Latest of this node's own ``sent_at`` stamps each peer has echoed
        #: (see :meth:`in_view`).  Peers start their silence clock for this
        #: node now, as this node does for them.
        self._echoed: Dict[str, float] = {peer: runtime.now() for peer in peers}
        self._alone_from_the_start = not peers
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
        for peer in self.peers:
            # A suspected peer gets none: it is on its way out of the view,
            # and its lease must not be renewed by a node that dropped it.
            if peer not in self._suspected:
                beat = Heartbeat(sent_at=now, echo=self._heard.get(peer, NEVER))
                self.transport.send(peer, beat, beat.wire_size())

    def _check_peers(self) -> None:
        now = self.runtime.now()
        for peer in list(self.peers):
            if peer in self._suspected:
                continue
            if now - self.last_seen.get(peer, 0.0) > self.failure_timeout_s:
                self._suspected.add(peer)
                self.on_failure(peer)

    def in_view(self) -> bool:
        """True while no peer can have timed this node out.

        A peer that echoed this node's heartbeat stamped *e* heard from it
        at or after *e*, so it cannot suspect it before *e* +
        ``failure_timeout_s``; the lease runs to one heartbeat interval
        short of that for the peer whose latest echo is oldest.  It holds
        whichever way messages are lost — a node nobody hears gets no
        echoes, a node that hears nobody gets none either — and across a
        freeze, and it may outrun an exclusion only if this node's clock
        runs slower than a peer's by more than ``heartbeat_interval_s /
        failure_timeout_s`` (a quarter, by default).

        Every member of ``peers`` counts until a *committed* delete removes
        it (:meth:`remove_peer`).  Suspecting a peer does not: the silent
        peer may be the one that cut this node off.  A peer that excluded
        this node stops heartbeating it, so the lease then stays lapsed; a
        shorter silence leaves it valid again once every peer's echoes
        catch up.  A node that has seen every peer deleted holds no lease:
        it cannot tell their crashes from a partition it sat out alone,
        dropping them by itself and committing those deletes with nobody.
        """
        echoed = self._echoed
        if not echoed:
            return self._alone_from_the_start
        lease = self.failure_timeout_s - self.heartbeat_interval_s
        return self.runtime.now() <= min(echoed.values()) + lease

    # ------------------------------------------------------------------
    def observe(self, sender: str) -> None:
        """Record any message from ``sender`` as evidence of liveness."""
        self.last_seen[sender] = self.runtime.now()

    def on_message(self, sender: str, message: Heartbeat) -> None:
        self.observe(sender)
        self._heard[sender] = message.sent_at
        echoed = self._echoed.get(sender)
        if echoed is not None and message.echo > echoed:
            lapsed = not self.in_view()
            self._echoed[sender] = message.echo
            self._report_view(lapsed)

    def _report_view(self, lapsed: bool) -> None:
        """After the only two events that extend the lease: an echo, a delete."""
        if lapsed and self.on_in_view is not None and self.in_view():
            self.on_in_view()

    def is_suspected(self, peer: str) -> bool:
        return peer in self._suspected

    def remove_peer(self, peer: str) -> None:
        """A committed delete: ``peer`` has no say over this node any more."""
        lapsed = not self.in_view()
        if peer in self.peers:
            self.peers.remove(peer)
        self._suspected.discard(peer)
        self.last_seen.pop(peer, None)
        self._heard.pop(peer, None)
        self._echoed.pop(peer, None)
        self._report_view(lapsed)


class MembershipManager:
    """Pending membership updates and their application to the emulation table."""

    def __init__(self, super_leaf_name: str) -> None:
        self.super_leaf_name = super_leaf_name
        self._pending: List[MembershipUpdate] = []
        self.applied: List[MembershipUpdate] = []

    # ------------------------------------------------------------------
    def note_failure(self, node_id: str) -> MembershipUpdate:
        update = MembershipUpdate(node_id=node_id, super_leaf=self.super_leaf_name)
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
            emulation_table.remove_node(update.node_id)
            live_view.discard(update.node_id)
