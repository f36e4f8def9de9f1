"""Read linearization by delay (§5).

Canopus never disseminates read requests.  A read is held until a consensus
cycle that orders every write acknowledged before the read was invoked has
committed at the receiving node, which then answers it from its local, now
totally ordered, replica.  :class:`~repro.canopus.node.CanopusNode` picks
that cycle: the last one it has started, while it is in its super-leaf's
view — or the one after, when the same client still has a write waiting
here to be proposed.  A read that arrives with that cycle already committed
waits for nothing and never reaches this module; one that arrives while it
is in flight waits for the rest of it; only a read behind its own client's
unproposed write waits for the batching tick and a whole cycle.  A node
that cannot tell whether it is still in view knows no such cycle: it keeps
the read until it can, or refuses it after a failure timeout (such a read
does not reach this module either).

The :class:`ReadLinearizer` tracks pending reads per *release cycle*, so the
node can release them at the right commit point in the order it received
them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.runtime.messages import ClientRequest

__all__ = ["PendingRead", "ReadLinearizer"]


@dataclass
class PendingRead:
    """A read request waiting for a consensus cycle to commit."""

    request: ClientRequest
    sender: str
    received_at: float
    release_cycle: int


class ReadLinearizer:
    """Buffers reads until the cycle that linearizes them has committed."""

    def __init__(self) -> None:
        self._pending: Dict[int, List[PendingRead]] = {}
        self.reads_buffered = 0
        self.reads_released = 0

    # ------------------------------------------------------------------
    def defer(self, request: ClientRequest, sender: str, now: float, release_cycle: int) -> PendingRead:
        """Buffer ``request`` until ``release_cycle`` commits."""
        pending = PendingRead(request=request, sender=sender, received_at=now, release_cycle=release_cycle)
        self._pending.setdefault(release_cycle, []).append(pending)
        self.reads_buffered += 1
        return pending

    def postpone(self, pending: PendingRead, new_release_cycle: int) -> None:
        """Move a buffered read to a later cycle (write-lease conflicts, §7.2)."""
        bucket = self._pending.get(pending.release_cycle, [])
        if pending not in bucket:
            return  # already released
        bucket.remove(pending)
        pending.release_cycle = new_release_cycle
        self._pending.setdefault(new_release_cycle, []).append(pending)

    def release_up_to(self, committed_cycle: int) -> List[PendingRead]:
        """Return (and remove) all reads whose release cycle has committed.

        Reads are returned in the order they were received at this node,
        which preserves per-client FIFO order.
        """
        released: List[PendingRead] = []
        for cycle_id in sorted(list(self._pending.keys())):
            if cycle_id <= committed_cycle:
                released.extend(self._pending.pop(cycle_id))
        released.sort(key=lambda p: (p.received_at, p.request.request_id))
        self.reads_released += len(released)
        return released

    # ------------------------------------------------------------------
    def pending_count(self) -> int:
        return self.reads_buffered - self.reads_released

    def earliest_release_cycle(self) -> Optional[int]:
        return min(self._pending.keys()) if self._pending else None
