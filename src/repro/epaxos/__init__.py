"""EPaxos baseline (Moraru et al., SOSP 2013) as evaluated in the paper.

The paper compares Canopus against EPaxos as the representative
state-of-the-art decentralized consensus protocol, running it with 0%
command interference, 5 ms / 2 ms batching, latency probing enabled and the
thrifty optimization disabled (§8).  This package implements the protocol's
message pattern at that setting — every replica is the command leader for
its own clients, and every instance commits on the fast path after one
pre-accept round, then is broadcast in a commit phase — with those same
knobs.  Interfering commands are outside its contract: it tracks no
dependencies and has no accept phase.
"""

from repro.epaxos.node import EPaxosConfig, EPaxosNode
from repro.epaxos.messages import Commit, InstanceId, PreAccept, PreAcceptOK

__all__ = [
    "EPaxosConfig",
    "EPaxosNode",
    "InstanceId",
    "PreAccept",
    "PreAcceptOK",
    "Commit",
]
