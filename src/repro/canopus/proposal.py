"""Proposal ordering and vnode-state merging (§4.2).

The state of a vnode is the merged, ordered list of the proposals of its
children.  Ordering is by each child's (random) proposal number, with ties
broken deterministically by the child's vnode/pnode id; requests inside one
proposal keep their arrival order, which preserves per-client FIFO order.
"""

from __future__ import annotations

from typing import List, Sequence

from repro.canopus.messages import ClientRequest, MembershipUpdate, Proposal

__all__ = ["order_proposals", "merge_proposals", "max_proposal_number"]


def order_proposals(proposals: Sequence[Proposal]) -> List[Proposal]:
    """Sort proposals by (proposal number, sender/vnode id).

    The paper orders by the large random proposal number and breaks the
    (rare) ties with unique node ids; including the vnode id keeps the rule
    total for merged proposals in later rounds.
    """
    return sorted(proposals, key=lambda p: (p.proposal_number, p.vnode_id, p.sender))


def max_proposal_number(proposals: Sequence[Proposal]) -> int:
    """Largest proposal number among ``proposals`` (0 if empty)."""
    return max((p.proposal_number for p in proposals), default=0)


def merge_proposals(
    cycle_id: int,
    round_number: int,
    vnode_id: str,
    sender: str,
    proposals: Sequence[Proposal],
) -> Proposal:
    """Compute a vnode's state from the proposals of its children.

    Returns a new :class:`Proposal` whose request list is the concatenation
    of the child request lists in proposal-number order, whose proposal
    number is the largest child proposal number, and whose membership
    updates are the union of the children's updates.

    Void children (:meth:`Proposal.is_void`) are left out, proposal number
    included: the state must not depend on whether a member saw a copy that
    is broadcast without agreement because it says nothing.
    """
    ordered = order_proposals([p for p in proposals if not p.is_void()])
    requests: List[ClientRequest] = []
    membership: List[MembershipUpdate] = []
    seen_updates = set()
    for proposal in ordered:
        requests.extend(proposal.requests)
        for update in proposal.membership_updates:
            if update not in seen_updates:
                seen_updates.add(update)
                membership.append(update)
    return Proposal(
        cycle_id=cycle_id,
        round_number=round_number,
        vnode_id=vnode_id,
        sender=sender,
        proposal_number=max_proposal_number(ordered),
        requests=tuple(requests),
        membership_updates=tuple(membership),
    )
