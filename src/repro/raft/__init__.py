"""Raft consensus substrate.

Canopus uses a variant of Raft as the reliable broadcast within a
super-leaf (§4.3, :mod:`repro.broadcast.raft_broadcast`): each member leads
its own Raft group.  That broadcast is the package's only user; the test
suite also drives :class:`RaftNode` directly.
"""

from repro.raft.log import LogEntry, RaftLog
from repro.raft.messages import (
    AppendEntries,
    AppendEntriesReply,
    RequestVote,
    RequestVoteReply,
)
from repro.raft.node import RaftConfig, RaftNode, Role

__all__ = [
    "LogEntry",
    "RaftLog",
    "AppendEntries",
    "AppendEntriesReply",
    "RequestVote",
    "RequestVoteReply",
    "RaftConfig",
    "RaftNode",
    "Role",
]
