"""Abstract reliable-broadcast interface used inside a super-leaf."""

from __future__ import annotations

import abc
import itertools
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

from repro.runtime.base import Runtime

__all__ = ["BroadcastEnvelope", "ReliableBroadcast"]

_envelope_ids = itertools.count(1)


@dataclass(slots=True)
class BroadcastEnvelope:
    """Wrapper identifying a payload as intra-super-leaf broadcast traffic."""

    origin: str
    sequence: int
    payload: Any
    envelope_id: int

    def wire_size(self) -> int:
        inner = getattr(self.payload, "wire_size", None)
        return (int(inner()) if callable(inner) else 64) + 24


class ReliableBroadcast(abc.ABC):
    """Reliable broadcast among the members of one super-leaf.

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
      some members may deliver.  The caller owns that gap.  An
      implementation may ignore the flag and give the full guarantees.

    ``first_sight`` is a hint, not a delivery: an implementation that holds
    a payload before it may deliver it calls ``first_sight(payload)`` when
    the payload arrives.  It may fire for a payload that is never
    delivered, in any order, and not at all where arrival is delivery.
    """

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
        self._sequence = itertools.count(1)
        self.broadcasts_sent = 0
        self.payloads_delivered = 0

    @property
    def group_size(self) -> int:
        return len(self.peers) + 1

    def next_envelope(self, payload: Any) -> BroadcastEnvelope:
        return BroadcastEnvelope(
            origin=self.node_id,
            sequence=next(self._sequence),
            payload=payload,
            envelope_id=next(_envelope_ids),
        )

    @abc.abstractmethod
    def broadcast(self, payload: Any, agreed: bool = False) -> None:
        """Broadcast ``payload`` to all super-leaf members (incl. self).

        ``agreed`` selects the service level (see the class docstring).
        """

    @abc.abstractmethod
    def handles(self, message: Any) -> bool:
        """Return True if ``message`` belongs to this broadcast layer."""

    @abc.abstractmethod
    def on_message(self, sender: str, message: Any) -> None:
        """Process a broadcast-layer message."""

    @abc.abstractmethod
    def remove_peer(self, peer: str) -> None:
        """Drop a failed peer from the broadcast group."""

    def add_peer(self, peer: str) -> None:
        """Add a joined peer to the broadcast group."""
        if peer != self.node_id and peer not in self.peers:
            self.peers.append(peer)

    def _local_deliver(self, origin: str, payload: Any) -> None:
        self.payloads_delivered += 1
        self.deliver(origin, payload)
