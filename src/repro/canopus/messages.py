"""Message types exchanged by Canopus nodes.

Wire-size accounting mirrors the paper's workload: proposal messages carry
the batched client requests (16-byte key-value pairs plus metadata, §8.1)
plus a proposal number, cycle id, round number and vnode id, and
proposal-request messages carry only identifiers.  Sizes feed the
simulator's bandwidth model, which is what makes broadcast-heavy baselines
saturate oversubscribed links while Canopus does not.  The client request
and reply are in :mod:`repro.runtime.messages`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.runtime.messages import ClientRequest

__all__ = ["MembershipUpdate", "Proposal", "ProposalRequest"]

#: Bytes charged per request entry inside a proposal (key + value + metadata).
REQUEST_ENTRY_BYTES = 48
#: Fixed overhead of a proposal message (cycle id, round, vnode id, number).
PROPOSAL_HEADER_BYTES = 40
#: Size of a proposal-request message.
PROPOSAL_REQUEST_BYTES = 24


@dataclass(frozen=True, slots=True)
# Payload-only: rides inside Proposal.membership_updates, never
# delivered as a top-level message.
class MembershipUpdate:  # detlint: disable=dispatch-complete
    """The deletion of a failed node, piggybacked on proposals (§4.6).

    The only membership change here: the paper's joins are not implemented
    (nothing transfers state to a rejoiner).
    """

    node_id: str
    super_leaf: str

    def wire_size(self) -> int:
        return 32


@dataclass(slots=True)
class Proposal:
    """A Canopus proposal message.

    Round-1 proposals carry a node's pending client write requests; round-i
    proposals (i > 1) carry the merged, ordered request list representing
    the state of the sender's height-(i-1) ancestor vnode (§4.2).
    """

    cycle_id: int
    round_number: int
    vnode_id: str
    sender: str
    proposal_number: int
    requests: Tuple[ClientRequest, ...] = ()
    membership_updates: Tuple[MembershipUpdate, ...] = ()

    def wire_size(self) -> int:
        return (
            PROPOSAL_HEADER_BYTES
            + REQUEST_ENTRY_BYTES * len(self.requests)
            + sum(update.wire_size() for update in self.membership_updates)
        )

    def key(self) -> Tuple[int, int, str]:
        """Identity of the vnode state this proposal represents."""
        return (self.cycle_id, self.round_number, self.vnode_id)

    def is_void(self) -> bool:
        """Nothing to order: no requests and no membership updates.

        A void proposal contributes nothing to any vnode state — merging
        ignores it, proposal number included — so a state is the same
        whether or not a member counted it.
        """
        return not self.requests and not self.membership_updates

    def __repr__(self) -> str:
        return (
            f"<Proposal c={self.cycle_id} r={self.round_number} v={self.vnode_id} "
            f"from={self.sender} n={self.proposal_number} |reqs|={len(self.requests)}>"
        )


@dataclass(slots=True)
class ProposalRequest:
    """Request from a super-leaf representative for a remote vnode's state."""

    cycle_id: int
    vnode_id: str
    requester: str

    def wire_size(self) -> int:
        return PROPOSAL_REQUEST_BYTES

    def __repr__(self) -> str:
        return f"<ProposalRequest c={self.cycle_id} v={self.vnode_id} from={self.requester}>"

