"""Per-consensus-cycle bookkeeping.

A :class:`CycleState` tracks, for one consensus cycle at one node:

* the round currently being executed,
* the round-1 proposals received from super-leaf peers,
* the computed vnode states (one per ancestor / fetched sibling vnode),
* proposal-requests from other super-leaves buffered until the requested
  vnode state becomes available (§4.2, event 3 in Figure 2), and
* the outstanding remote fetches issued by this node as a representative.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.canopus.messages import ClientRequest, MembershipUpdate, Proposal

__all__ = ["FetchState", "CycleState"]


@dataclass
class FetchState:
    """An outstanding proposal-request issued by this node."""

    vnode_id: str
    emulator: str
    issued_at: float
    attempts: int = 1
    #: This node's index among the vnode's fetchers (redundant fetching).
    rank: int = 0
    timer: object = None
    satisfied: bool = False


@dataclass
class CycleState:
    """State of one consensus cycle at one node."""

    cycle_id: int
    total_rounds: int
    #: Super-leaf members expected to contribute a round-1 proposal.
    expected_members: Set[str] = field(default_factory=set)
    current_round: int = 1
    started_at: float = 0.0
    #: Round-1 proposals received so far, keyed by the originating pnode.
    round1_proposals: Dict[str, Proposal] = field(default_factory=dict)
    #: Computed/fetched vnode states, keyed by vnode id (includes pnode
    #: round-1 entries keyed by pnode id for uniformity).
    vnode_states: Dict[str, Proposal] = field(default_factory=dict)
    #: Proposal-requests buffered until the vnode's state is available:
    #: vnode id -> list of requester node ids.
    buffered_requests: Dict[str, List[str]] = field(default_factory=dict)
    #: Outstanding remote fetches keyed by vnode id.
    fetches: Dict[str, FetchState] = field(default_factory=dict)
    #: Interned proposal-request replies: vnode id -> (reply, wire size).
    #: Serving the same vnode state to several requesters re-uses one
    #: message object and one wire-size computation; the cache dies with
    #: the cycle, and vnode states are recorded at most once per vnode
    #: (:meth:`record_vnode_state`), so entries can never go stale.
    reply_cache: Dict[str, Tuple[Proposal, int]] = field(default_factory=dict)
    #: Client write requests proposed by this node in this cycle.
    own_requests: Tuple[ClientRequest, ...] = ()
    #: Membership updates proposed by this node in this cycle.
    own_membership_updates: Tuple[MembershipUpdate, ...] = ()
    completed: bool = False
    committed: bool = False
    completed_at: Optional[float] = None

    # ------------------------------------------------------------------
    def record_round1(self, proposal: Proposal) -> bool:
        """Record a round-1 proposal; returns True if it was new."""
        if proposal.sender in self.round1_proposals:
            return False
        self.round1_proposals[proposal.sender] = proposal
        return True

    def round1_complete(self) -> bool:
        """True when every live super-leaf member's proposal has arrived."""
        return self.expected_members.issubset(self.round1_proposals.keys())

    def missing_round1(self) -> Set[str]:
        return self.expected_members - set(self.round1_proposals.keys())

    # ------------------------------------------------------------------
    def record_vnode_state(self, proposal: Proposal) -> bool:
        """Record a computed or fetched vnode state; True if it was new."""
        if proposal.vnode_id in self.vnode_states:
            return False
        self.vnode_states[proposal.vnode_id] = proposal
        return True

    def has_vnode_state(self, vnode_id: str) -> bool:
        return vnode_id in self.vnode_states

    def vnode_state(self, vnode_id: str) -> Proposal:
        return self.vnode_states[vnode_id]

    # ------------------------------------------------------------------
    def buffer_request(self, vnode_id: str, requester: str) -> None:
        self.buffered_requests.setdefault(vnode_id, []).append(requester)

    def drain_buffered(self, vnode_id: str) -> List[str]:
        return self.buffered_requests.pop(vnode_id, [])

    # ------------------------------------------------------------------
    def exclude_member(self, node_id: str) -> None:
        """Stop waiting for a failed super-leaf member in round 1."""
        self.expected_members.discard(node_id)

    def root_state(self, root_vnode: str) -> Optional[Proposal]:
        return self.vnode_states.get(root_vnode)

    def __repr__(self) -> str:
        return (
            f"<Cycle {self.cycle_id} round={self.current_round}/{self.total_rounds} "
            f"r1={len(self.round1_proposals)}/{len(self.expected_members)} "
            f"completed={self.completed}>"
        )
