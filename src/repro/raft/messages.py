"""Raft RPC message types.

Every message carries a ``group_id`` so that multiple Raft groups can share
one transport endpoint — which is exactly how Canopus super-leaves use Raft
for reliable broadcast (each super-leaf member leads its own group).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

__all__ = ["RequestVote", "RequestVoteReply", "AppendEntries", "AppendEntriesReply", "RAFT_MESSAGE_TYPES"]

_HEADER_BYTES = 48


@dataclass(slots=True)
class RequestVote:
    """Candidate solicits votes (Raft §5.2)."""

    group_id: str
    term: int
    candidate_id: str
    last_log_index: int
    last_log_term: int

    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class RequestVoteReply:
    """Response to :class:`RequestVote`."""

    group_id: str
    term: int
    voter_id: str
    vote_granted: bool

    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class AppendEntries:
    """Leader log replication / heartbeat (Raft §5.3).

    ``probe`` numbers the leader's replication rounds; followers echo it in
    their reply so the leader can tell which of its broadcasts a given ack
    answers.  Read-index reads (§6.4) and leader leases are built on that:
    a majority of echoes ``>= S`` confirms the leader's term *after* round
    ``S`` was sent.  The sequence number rides inside the existing header
    (``wire_size`` is unchanged), so adding it does not perturb modelled
    timing.

    With ``probe == 0`` the message opens no round, and a follower that
    accepts it sends no reply.  Without entries it is a *commit notice*: it
    only carries ``leader_commit``.  With entries it is an *unacknowledged
    append* (``RaftNode.propose(command, acknowledged=False)``).  A follower
    that cannot accept either answers, so the leader resends what is missing.
    """

    group_id: str
    term: int
    leader_id: str
    prev_log_index: int
    prev_log_term: int
    entries: Tuple[Any, ...] = ()
    leader_commit: int = 0
    probe: int = 0

    def wire_size(self) -> int:
        entry_bytes = 0
        for entry in self.entries:
            command = getattr(entry, "command", entry)
            inner = getattr(command, "wire_size", None)
            entry_bytes += (int(inner()) if callable(inner) else 64) + 16
        return _HEADER_BYTES + entry_bytes


@dataclass(slots=True)
class AppendEntriesReply:
    """Follower response to :class:`AppendEntries`.

    On success ``match_index`` is the last index the message covered; on a
    failed consistency check it is the highest index the leader's next
    attempt could still match (the follower's last index, or one before
    the conflicting entry).
    """

    group_id: str
    term: int
    follower_id: str
    success: bool
    match_index: int
    probe: int = 0

    def wire_size(self) -> int:
        return _HEADER_BYTES


RAFT_MESSAGE_TYPES = (RequestVote, RequestVoteReply, AppendEntries, AppendEntriesReply)
