"""EPaxos baseline (Moraru et al., SOSP 2013) as evaluated in the paper.

The paper compares Canopus against EPaxos as the representative
state-of-the-art decentralized consensus protocol, running it with 0%
command interference, 5 ms / 2 ms batching, latency probing enabled and the
thrifty optimization disabled (§8).  This package implements the protocol's
message pattern — every replica is the command leader for its own clients,
pre-accept/accept/commit phases, fast path on non-interfering commands —
with those same knobs.
"""

from repro.epaxos.node import EPaxosConfig, EPaxosNode
from repro.epaxos.messages import Accept, AcceptOK, Commit, InstanceId, PreAccept, PreAcceptOK

__all__ = [
    "EPaxosConfig",
    "EPaxosNode",
    "InstanceId",
    "PreAccept",
    "PreAcceptOK",
    "Accept",
    "AcceptOK",
    "Commit",
]
