"""repro: a reproduction of *Canopus: A Scalable and Massively Parallel
Consensus Protocol* (Rizvi, Wong, Keshav — CoNEXT 2017).

The package contains the Canopus protocol (:mod:`repro.canopus`), the
substrates it depends on (a Raft implementation used for intra-super-leaf
reliable broadcast, a key-value store and a deterministic discrete-event
network simulator), the baselines
the paper compares against (EPaxos and ZooKeeper/Zab), and the workload /
measurement / experiment harness that regenerates every table and figure of
the paper's evaluation.

All protocols are exposed through a unified abstraction layer
(:mod:`repro.protocols`): a :class:`~repro.protocols.ConsensusProtocol`
contract plus a string-keyed registry, so systems are built with
``build_protocol("canopus", topology)``; adding a protocol is one adapter
module plus one row in the registry's built-in table (see
``ARCHITECTURE.md``).  The client request and reply
every protocol serves are in :mod:`repro.runtime.messages`.

Importing this package loads nothing else: a run imports the simulator,
the harness and the one protocol it builds.

See ``examples/quickstart.py`` for a complete runnable example,
``ARCHITECTURE.md`` for the system inventory and ``perf/README.md`` for the
benchmark every performance claim is judged on.
"""

__version__ = "1.1.0"
