"""Configuration knobs for a Canopus deployment."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "CanopusConfig",
    "FAILURE_TIMEOUT_MULTIPLIER",
    "PROPOSAL_NUMBER_BITS",
    "REPRESENTATIVES_PER_SUPER_LEAF",
]

#: Super-leaf representatives that fetch remote vnode state each cycle
#: (Figure 2 shows two).
REPRESENTATIVES_PER_SUPER_LEAF = 2
#: Heartbeat intervals without word from a peer before it is declared
#: failed.  Its inverse is the clock-rate drift the view lease tolerates
#: (25 %); a peer's crash turns at-once reads off at the survivors for about
#: one heartbeat interval plus the cycles that commit its delete.
FAILURE_TIMEOUT_MULTIPLIER = 4.0
#: Width of a round-1 proposal's random number (the paper uses large
#: random numbers).
PROPOSAL_NUMBER_BITS = 32


@dataclass
class CanopusConfig:
    """Tunable parameters of the Canopus protocol.

    Defaults follow the paper's experimental configuration: a new consensus
    cycle starts every 5 ms or after 1000 buffered client requests,
    whichever comes first (§8.2), and pipelining is enabled for wide-area
    deployments.
    """

    #: Height of the LOT; the number of rounds per consensus cycle.
    lot_height: int = 2
    #: Redundant fetches per vnode (distinct emulators queried in parallel).
    redundant_fetches: int = 1
    #: Batching interval (§8.2): a node starts its next cycle no sooner than
    #: this after it started the previous one, unless ``max_batch_size``
    #: requests are waiting or a peer has already started that cycle.  When
    #: pipelining it is also the period of the cycle clock (§7.1).
    cycle_interval_s: float = 0.005
    #: Maximum number of buffered client requests before forcing a new cycle.
    max_batch_size: int = 1000
    #: Enable pipelined (overlapping) consensus cycles (§7.1).
    pipelining: bool = True
    #: Maximum number of consensus cycles in flight: how many a pipelining
    #: node starts on its own and, in both modes, how far self-synchronisation
    #: lets it run ahead of its last commit (cycle state is kept for 4x this).
    max_inflight_cycles: int = 8
    #: Timeout after which a representative retries a proposal-request with
    #: a different emulator (also the failure-detection knob of §4.6).
    fetch_timeout_s: float = 1.0
    #: Heartbeat interval for the intra-super-leaf failure detector.  Also
    #: the margin of a node's view lease (``FailureDetector.in_view``, which
    #: lets a read be answered without waiting for a cycle): the lease ends
    #: this long before any peer could time the node out.
    heartbeat_interval_s: float = 0.05
    #: Reliable-broadcast implementation.  "raft" (§4.3, per-member Raft
    #: groups) is the only one; the field stays until the benchmark's
    #: workload definitions stop passing it.
    broadcast_mode: str = "raft"

    def failure_timeout_s(self) -> float:
        return self.heartbeat_interval_s * FAILURE_TIMEOUT_MULTIPLIER

    def validate(self) -> None:
        """Raise ``ValueError`` on inconsistent settings."""
        if self.lot_height < 1:
            raise ValueError("lot_height must be >= 1")
        if self.cycle_interval_s <= 0:
            raise ValueError("cycle_interval_s must be positive")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.max_inflight_cycles < 1:
            raise ValueError("max_inflight_cycles must be >= 1")
        if self.broadcast_mode != "raft":
            raise ValueError(f"unknown broadcast_mode {self.broadcast_mode!r}: the only one is 'raft'")
