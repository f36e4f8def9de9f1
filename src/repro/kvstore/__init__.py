"""ZooKeeper-like hierarchical key-value store.

The store is the replicated state machine behind both baselines and the
"ZKCanopus" configuration of the paper: a tree of *znodes*, each holding a
byte-string value and a version counter.  Log and snapshot storage is not
modelled: the paper finds throughput unchanged between an in-memory
filesystem and an SSD (§8.1).
"""

from repro.kvstore.store import KVStore, ZNode, NoNodeError, NodeExistsError

__all__ = [
    "KVStore",
    "ZNode",
    "NoNodeError",
    "NodeExistsError",
]
