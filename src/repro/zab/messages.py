"""Zab atomic-broadcast messages (simplified to the broadcast phase).

Leader election and synchronization phases are out of scope for the
throughput experiments the paper runs (the leader is stable); the broadcast
phase messages below carry the same information as Zab's PROPOSAL / ACK /
COMMIT / INFORM packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.runtime.messages import ClientRequest

__all__ = ["WriteForward", "ZabProposal", "ZabAck", "ZabCommit", "ZabInform"]

_HEADER_BYTES = 48
_TXN_ENTRY_BYTES = 48


@dataclass(slots=True)
class WriteForward:
    """A follower/observer forwards a client write to the leader."""

    origin: str
    requests: Tuple[ClientRequest, ...]

    def wire_size(self) -> int:
        return _HEADER_BYTES + _TXN_ENTRY_BYTES * len(self.requests)


@dataclass(slots=True)
class ZabProposal:
    """Leader proposes a batch of transactions to the followers."""

    zxid: int
    origin: str
    requests: Tuple[ClientRequest, ...]

    def wire_size(self) -> int:
        return _HEADER_BYTES + _TXN_ENTRY_BYTES * len(self.requests)


@dataclass(slots=True)
class ZabAck:
    """Follower acknowledgement of a proposal."""

    zxid: int
    follower: str

    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class ZabCommit:
    """Leader commit notification to followers."""

    zxid: int

    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class ZabInform:
    """Leader informs observers of a committed transaction batch."""

    zxid: int
    origin: str
    requests: Tuple[ClientRequest, ...]

    def wire_size(self) -> int:
        return _HEADER_BYTES + _TXN_ENTRY_BYTES * len(self.requests)
