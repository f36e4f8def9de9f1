"""Unified protocol abstraction layer.

The built-in protocols, each with a row in ``BUILTIN_PROTOCOLS``
(:mod:`repro.protocols.registry`) naming the adapter module that builds
it; the adapter is imported the first time its name is built:

========== ============================================================
canopus     Canopus over a key-value replica per node (Figures 4, 6, 7)
zkcanopus   Canopus as ZooKeeper's replication layer (Figure 5)
epaxos      EPaxos with configurable batching (Figures 4, 6, 7)
zookeeper   ZooKeeper: Zab leader + followers + observers (Figure 5)
========== ============================================================

Every node applies committed writes to its own
:class:`repro.kvstore.store.KVStore`; ``protocol.stores`` maps node ids to
them.  ``canopus`` and ``zkcanopus`` are one adapter under two names.

Build one with::

    from repro.protocols import build_protocol
    protocol = build_protocol("canopus", topology)
    protocol.start()

See ``ARCHITECTURE.md`` at the repository root for how to add a protocol.
"""

from repro.protocols.base import ConsensusProtocol
from repro.protocols.registry import build_protocol, registered_protocols

__all__ = ["ConsensusProtocol", "build_protocol", "registered_protocols"]
