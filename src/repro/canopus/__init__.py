"""Canopus: the paper's primary contribution.

The package implements the protocol described in §4–§7 of the paper,
except the write-lease read optimization of §7.2:

* :mod:`repro.canopus.lot` — the Leaf-Only Tree overlay, super-leaves,
  emulation table, and representative assignment.
* :mod:`repro.canopus.messages` — proposal, proposal-request and
  membership-update message types with wire-size accounting.
* :mod:`repro.canopus.proposal` — proposal ordering and vnode-state merging.
* :mod:`repro.canopus.cycle` — per-consensus-cycle bookkeeping (rounds,
  buffered proposal-requests, fetched vnode states).
* :mod:`repro.canopus.node` — the Canopus node state machine: consensus
  cycles, self-synchronization, pipelining, read linearization, commit.
* :mod:`repro.canopus.linearizer` — read-delay linearization (§5).
* :mod:`repro.canopus.membership` — the failure detector and the
  delete-only emulation-table maintenance of §4.6 (no joins).

Node placement (one node per server host, one super-leaf per rack, §3) is
not part of the protocol core: the ``canopus`` and ``zkcanopus`` registry
factories in :mod:`repro.protocols.canopus` decide it.
"""

from repro.canopus.config import CanopusConfig
from repro.canopus.lot import LeafOnlyTree, SuperLeaf, VNode
from repro.canopus.messages import Proposal, ProposalRequest
from repro.canopus.node import CanopusNode

__all__ = [
    "CanopusConfig",
    "LeafOnlyTree",
    "SuperLeaf",
    "VNode",
    "Proposal",
    "ProposalRequest",
    "CanopusNode",
]
