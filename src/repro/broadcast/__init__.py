"""Reliable broadcast within a super-leaf (§4.3).

Two implementations are provided behind one interface:

* :class:`~repro.broadcast.ideal.IdealBroadcast` models a ToR switch with
  hardware-assisted atomic broadcast: one unicast copy per peer, delivered
  reliably and in sender order.
* :class:`~repro.broadcast.raft_broadcast.RaftBroadcast` is the software
  fallback the paper's prototype uses: every super-leaf member leads its
  own Raft group whose followers are its super-leaf peers; a broadcast is a
  log append replicated to a majority before delivery, or — for a payload
  the caller marks ``agreed`` — an unacknowledged append delivered on
  arrival.
"""

from repro.broadcast.base import BroadcastEnvelope, ReliableBroadcast
from repro.broadcast.ideal import IdealBroadcast
from repro.broadcast.raft_broadcast import RaftBroadcast

__all__ = ["ReliableBroadcast", "BroadcastEnvelope", "IdealBroadcast", "RaftBroadcast"]


def make_broadcast(mode: str, runtime, peers, deliver, first_sight=None) -> ReliableBroadcast:
    """Factory used by :class:`repro.canopus.node.CanopusNode`."""
    if mode == "ideal":
        return IdealBroadcast(runtime, peers, deliver)  # arrival is delivery: nothing to hint
    if mode == "raft":
        return RaftBroadcast(runtime, peers, deliver, first_sight)
    raise ValueError(f"unknown broadcast mode {mode!r}")
