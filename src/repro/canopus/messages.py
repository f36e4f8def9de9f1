"""Message types exchanged by Canopus nodes and clients.

Wire-size accounting mirrors the paper's workload: requests carry 16-byte
key-value pairs (§8.1), proposal messages carry the batched requests plus a
proposal number, cycle id, round number and vnode id, and proposal-request
messages carry only identifiers.  Sizes feed the simulator's bandwidth
model, which is what makes broadcast-heavy baselines saturate
oversubscribed links while Canopus does not.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "RequestType",
    "ClientRequest",
    "ClientReply",
    "NOT_IN_VIEW",
    "MembershipUpdate",
    "Proposal",
    "ProposalRequest",
    "wire_size",
]

_request_ids = itertools.count(1)

#: Bytes charged per request entry inside a proposal (key + value + metadata).
REQUEST_ENTRY_BYTES = 48
#: Fixed overhead of a proposal message (cycle id, round, vnode id, number).
PROPOSAL_HEADER_BYTES = 40
#: Size of a proposal-request message.
PROPOSAL_REQUEST_BYTES = 24
#: Size of a client request / reply on the wire.
CLIENT_MESSAGE_BYTES = 48
#: ``ClientReply.error`` of a read refused by a node that could not tell, for
#: a whole failure timeout, whether its peers still count it in.
NOT_IN_VIEW = "not-in-view"


class RequestType(enum.Enum):
    """Kind of client operation."""

    READ = "read"
    WRITE = "write"


@dataclass(slots=True)
class ClientRequest:
    """A key-value read or write submitted by a client to one Canopus node."""

    client_id: str
    op: RequestType
    key: str
    value: Optional[str] = None
    request_id: int = field(default_factory=lambda: next(_request_ids))
    submitted_at: float = 0.0

    def is_write(self) -> bool:
        return self.op is RequestType.WRITE

    def is_read(self) -> bool:
        return self.op is RequestType.READ

    def wire_size(self) -> int:
        return CLIENT_MESSAGE_BYTES

    def __repr__(self) -> str:  # keep traces readable
        return f"<{self.op.value} #{self.request_id} {self.key}>"


@dataclass(slots=True)
# Client-plane: replies go to workload clients via their reply queue,
# never through a node's _dispatch table.
class ClientReply:  # detlint: disable=dispatch-complete
    """Reply returned to the client once its request is served — or, with
    ``error`` set, refused: nothing was read or written and ``value`` says
    nothing; the client should ask another node."""

    request_id: int
    client_id: str
    op: RequestType
    key: str
    value: Optional[str]
    committed_cycle: Optional[int]
    completed_at: float = 0.0
    server_id: str = ""
    error: Optional[str] = None

    def wire_size(self) -> int:
        return CLIENT_MESSAGE_BYTES


@dataclass(frozen=True, slots=True)
# Payload-only: rides inside Proposal.membership_updates, never
# delivered as a top-level message.
class MembershipUpdate:  # detlint: disable=dispatch-complete
    """A join or leave event piggybacked on proposals (§4.6)."""

    action: str  # "add" or "delete"
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


def wire_size(message: object) -> int:
    """Wire size of any protocol message (fallback 64 bytes)."""
    size = getattr(message, "wire_size", None)
    if callable(size):
        return int(size())
    return 64
