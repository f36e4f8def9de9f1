"""EPaxos protocol messages.

Message sizes are modelled the same way as Canopus': a fixed header plus a
per-command entry cost, so the simulator charges EPaxos for shipping every
command (reads included) to a quorum of replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Tuple

from repro.runtime.messages import ClientRequest

__all__ = ["InstanceId", "PreAccept", "PreAcceptOK", "Accept", "AcceptOK", "Commit"]

_HEADER_BYTES = 56
_COMMAND_ENTRY_BYTES = 48


@dataclass(frozen=True, order=True, slots=True)
class InstanceId:
    """EPaxos instance identifier: (command-leader replica, slot)."""

    replica: str
    slot: int

    def __repr__(self) -> str:
        return f"{self.replica}.{self.slot}"


def _batch_bytes(commands: Tuple[ClientRequest, ...]) -> int:
    return _COMMAND_ENTRY_BYTES * len(commands)


@dataclass(slots=True)
class PreAccept:
    """Phase-1 message from the command leader to the fast quorum."""

    instance: InstanceId
    commands: Tuple[ClientRequest, ...]
    seq: int
    deps: FrozenSet[InstanceId]
    ballot: int = 0

    def wire_size(self) -> int:
        return _HEADER_BYTES + _batch_bytes(self.commands) + 16 * len(self.deps)


@dataclass(slots=True)
class PreAcceptOK:
    """Reply to PreAccept carrying the replica's view of seq/deps."""

    instance: InstanceId
    replica: str
    seq: int
    deps: FrozenSet[InstanceId]
    changed: bool

    def wire_size(self) -> int:
        return _HEADER_BYTES + 16 * len(self.deps)


@dataclass(slots=True)
class Accept:
    """Phase-2 (slow path) message fixing the union seq/deps."""

    instance: InstanceId
    commands: Tuple[ClientRequest, ...]
    seq: int
    deps: FrozenSet[InstanceId]
    ballot: int = 0

    def wire_size(self) -> int:
        return _HEADER_BYTES + _batch_bytes(self.commands) + 16 * len(self.deps)


@dataclass(slots=True)
class AcceptOK:
    """Reply to Accept."""

    instance: InstanceId
    replica: str

    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class Commit:
    """Commit notification broadcast to all replicas."""

    instance: InstanceId
    commands: Tuple[ClientRequest, ...]
    seq: int
    deps: FrozenSet[InstanceId]

    def wire_size(self) -> int:
        return _HEADER_BYTES + _batch_bytes(self.commands) + 16 * len(self.deps)
