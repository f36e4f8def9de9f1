"""The client plane: the request and reply every protocol serves.

A workload client sends a :class:`ClientRequest` to one server node of
whichever protocol is deployed, and gets a :class:`ClientReply` back.  The
types are protocol-neutral, so they live next to the :class:`Runtime`
interface every protocol core is written against rather than inside any
one protocol, and this module imports nothing from ``repro``.

Wire sizes mirror the paper's workload: requests and replies carry 16-byte
key-value pairs (§8.1) plus identifiers, charged as one fixed size.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Optional

__all__ = ["RequestType", "ClientRequest", "ClientReply", "NOT_IN_VIEW", "CLIENT_MESSAGE_BYTES"]

_request_ids = itertools.count(1)

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
    """A key-value read or write submitted by a client to one server node."""

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
