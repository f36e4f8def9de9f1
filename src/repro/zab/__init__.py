"""ZooKeeper / Zab baseline: centralized atomic broadcast.

The paper compares ZKCanopus (ZooKeeper with Zab replaced by Canopus)
against stock ZooKeeper configured with five followers and the remaining
nodes as observers (§8.1.2).  This package implements that configuration:
a single leader orders all writes with a two-phase proposal/ack/commit
broadcast to followers, observers receive committed transactions
asynchronously, and every replica (leader, follower or observer) answers
read requests from its local copy of the data tree.
"""

from repro.zab.node import ZabConfig, ZabNode, ZabRole
from repro.zab.messages import ZabAck, ZabCommit, ZabInform, ZabProposal, WriteForward

__all__ = [
    "ZabConfig",
    "ZabNode",
    "ZabRole",
    "ZabProposal",
    "ZabAck",
    "ZabCommit",
    "ZabInform",
    "WriteForward",
]
