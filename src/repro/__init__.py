"""repro: a reproduction of *Canopus: A Scalable and Massively Parallel
Consensus Protocol* (Rizvi, Wong, Keshav — CoNEXT 2017).

The package contains the Canopus protocol (:mod:`repro.canopus`), the
substrates it depends on (a Raft implementation used for intra-super-leaf
reliable broadcast, a ZooKeeper-style key-value store, a deterministic
discrete-event network simulator and an asyncio transport), the baselines
the paper compares against (EPaxos and ZooKeeper/Zab), and the workload /
measurement / experiment harness that regenerates every table and figure of
the paper's evaluation.

All protocols are exposed through a unified abstraction layer
(:mod:`repro.protocols`): a :class:`~repro.protocols.ConsensusProtocol`
contract plus a string-keyed registry, so systems are built with
``build_protocol("canopus", topology)`` and adding a protocol is a
one-file change (see ``ARCHITECTURE.md``).

See ``examples/quickstart.py`` for a complete runnable example,
``ARCHITECTURE.md`` for the system inventory and ``perf/README.md`` for the
benchmark every performance claim is judged on.
"""

__version__ = "1.1.0"

from repro.canopus import CanopusConfig, CanopusNode
from repro.canopus.messages import ClientReply, ClientRequest, RequestType
from repro.protocols import ConsensusProtocol, build_protocol, registered_protocols

__all__ = [
    "__version__",
    "CanopusConfig",
    "CanopusNode",
    "ClientRequest",
    "ClientReply",
    "RequestType",
    "ConsensusProtocol",
    "build_protocol",
    "registered_protocols",
]
