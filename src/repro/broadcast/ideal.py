"""Idealized atomic broadcast (models ToR hardware-assisted broadcast).

The paper notes that super-leaves can use switch broadcast support when
available.  This implementation sends one unicast copy of the envelope to
each peer; the underlying network/runtime is assumed reliable (assumption
A2), so delivery is immediate on receipt and self-delivery is local.
"""

from __future__ import annotations

from typing import Any

from repro.broadcast.base import BroadcastEnvelope, ReliableBroadcast

__all__ = ["IdealBroadcast"]


class IdealBroadcast(ReliableBroadcast):
    """One-copy-per-peer broadcast with immediate delivery.

    Every broadcast already costs what an ``agreed`` one is allowed to, so
    the flag is ignored.
    """

    message_types = (BroadcastEnvelope,)

    def broadcast(self, payload: Any, agreed: bool = False) -> None:
        envelope = self.next_envelope(payload)
        self.broadcasts_sent += 1
        self.transport.broadcast(self.peers, envelope, envelope.wire_size())
        # Deliver locally right away: the sender trivially has the payload.
        self.payloads_delivered += 1
        self.deliver(self.node_id, payload)

    def on_message(self, sender: str, message: BroadcastEnvelope) -> None:
        self.payloads_delivered += 1
        self.deliver(message.origin, message.payload)

    def remove_peer(self, peer: str) -> None:
        if peer in self.peers:
            self.peers.remove(peer)
