"""EPaxos protocol messages.

Message sizes are modelled the same way as Canopus': a fixed header plus a
per-command entry cost, so the simulator charges EPaxos for shipping every
command (reads included) to a quorum of replicas.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.runtime.messages import ClientRequest

__all__ = ["InstanceId", "PreAccept", "PreAcceptOK", "Commit"]

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

    def wire_size(self) -> int:
        return _HEADER_BYTES + _batch_bytes(self.commands)


@dataclass(slots=True)
class PreAcceptOK:
    """A fast-quorum replica's reply to PreAccept."""

    instance: InstanceId

    def wire_size(self) -> int:
        return _HEADER_BYTES


@dataclass(slots=True)
class Commit:
    """Commit notification broadcast to all replicas."""

    instance: InstanceId
    commands: Tuple[ClientRequest, ...]
    seq: int

    def wire_size(self) -> int:
        return _HEADER_BYTES + _batch_bytes(self.commands)
