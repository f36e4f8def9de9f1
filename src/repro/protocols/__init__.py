"""Unified protocol abstraction layer.

The built-in protocols, each registered the first time it is asked for
(``BUILTIN_PROTOCOLS`` in :mod:`repro.protocols.registry`):

========== ============================================================
canopus     Canopus over a key-value replica per node (Figures 4, 6, 7)
zkcanopus   Canopus as ZooKeeper's replication layer (Figure 5)
epaxos      EPaxos with configurable batching (Figures 4, 6, 7)
zookeeper   ZooKeeper: Zab leader + followers + observers (Figure 5)
raft        Raft-replicated KV store (the template for adding a protocol)
========== ============================================================

Every node applies committed writes to its own
:class:`repro.kvstore.store.KVStore`; ``protocol.stores`` maps node ids to
them.  ``canopus`` and ``zkcanopus`` are one factory under two names.

Build one with::

    from repro.protocols import build_protocol
    protocol = build_protocol("canopus", topology)
    protocol.start()

See ``ARCHITECTURE.md`` at the repository root for how to register a new
protocol.
"""

from repro.protocols.base import ConsensusProtocol
from repro.protocols.registry import (
    ProtocolSpec,
    build_protocol,
    default_config,
    protocol_spec,
    register_protocol,
    registered_protocols,
    unregister_protocol,
)

__all__ = [
    "ConsensusProtocol",
    "ProtocolSpec",
    "build_protocol",
    "default_config",
    "protocol_spec",
    "register_protocol",
    "registered_protocols",
    "unregister_protocol",
]
