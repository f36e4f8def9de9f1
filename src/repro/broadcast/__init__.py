"""Reliable broadcast within a super-leaf (§4.3).

:class:`~repro.broadcast.raft_broadcast.RaftBroadcast` is the broadcast the
paper's prototype uses: every super-leaf member leads its own Raft group
whose followers are its super-leaf peers; a broadcast is a log append
replicated to a majority before delivery, or — for a payload the caller
marks ``agreed`` — an unacknowledged append delivered on arrival.
"""

from repro.broadcast.raft_broadcast import RaftBroadcast

__all__ = ["RaftBroadcast"]
