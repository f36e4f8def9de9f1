"""The replicated state machine behind every protocol.

Each replica applies committed writes, in commit order, to its own flat
key-value map (:class:`KVStore`) and serves reads from it.  Log and
snapshot storage is not modelled: the paper finds throughput unchanged
between an in-memory filesystem and an SSD (§8.1).
"""

from repro.kvstore.store import KVStore

__all__ = ["KVStore"]
