"""Write leases: the optional read optimization of §7.2.

For any key, during any consensus cycle either a write lease is *inactive*
(no writes permitted, every node may answer reads for the key immediately
from committed state) or *active* (writes permitted with the order decided
at the end of the cycle, reads for the key are deferred to the end of a
cycle exactly as every read is without leases, §5).

Lease requests are piggybacked on proposal messages: a write to key ``k``
proposed in cycle ``C_i`` doubles as a lease request; at the end of cycle
``C_{i+1}`` every correct node has the same set of lease requests and
activates the lease for the same span of cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List

__all__ = ["LeaseTable", "WriteLease"]


@dataclass
class WriteLease:
    """An active write lease for one key."""

    key: str
    activated_cycle: int
    expires_cycle: int

    def active_in(self, cycle_id: int) -> bool:
        return self.activated_cycle <= cycle_id <= self.expires_cycle


class LeaseTable:
    """Tracks which keys have an active write lease in which cycles.

    All nodes derive the table from the same committed request stream, so
    the table is identical at every node for every committed cycle — that is
    what makes serving reads locally safe.
    """

    def __init__(self, lease_cycles: int = 3) -> None:
        if lease_cycles < 1:
            raise ValueError("lease_cycles must be >= 1")
        self.lease_cycles = lease_cycles
        self._leases: Dict[str, WriteLease] = {}
        self.leases_granted = 0
        self.leases_renewed = 0

    # ------------------------------------------------------------------
    def observe_committed_writes(self, cycle_id: int, keys: Iterable[str]) -> None:
        """Record that ``keys`` were written by the cycle that just committed.

        The lease becomes active in the *next* cycle (the paper's
        ``C_{i+p+1}`` with p = 1) and stays active for ``lease_cycles``
        cycles unless renewed by further writes.
        """
        for key in keys:
            activated = cycle_id + 1
            expires = activated + self.lease_cycles - 1
            existing = self._leases.get(key)
            if existing is not None and existing.expires_cycle >= activated:
                existing.expires_cycle = max(existing.expires_cycle, expires)
                self.leases_renewed += 1
            else:
                self._leases[key] = WriteLease(key=key, activated_cycle=activated, expires_cycle=expires)
                self.leases_granted += 1

    def lease_active(self, key: str, cycle_id: int) -> bool:
        """Is a write lease for ``key`` active during ``cycle_id``?"""
        lease = self._leases.get(key)
        return lease is not None and lease.active_in(cycle_id)

    def active_leases(self, cycle_id: int) -> List[WriteLease]:
        return [lease for lease in self._leases.values() if lease.active_in(cycle_id)]

    def prune(self, cycle_id: int) -> None:
        """Drop leases that expired before ``cycle_id`` (housekeeping)."""
        expired = [key for key, lease in self._leases.items() if lease.expires_cycle < cycle_id]
        for key in expired:
            del self._leases[key]

    def __len__(self) -> int:
        return len(self._leases)
