"""String-keyed registry of consensus protocols.

The registry decouples *naming* a protocol from *constructing* it: the
benchmark harness, the workload generator, the examples and the tests all
build systems with ``build_protocol("canopus", topology)`` and never import
a protocol module directly.

:data:`BUILTIN_PROTOCOLS` is the whole registry: it maps each name to the
adapter module that builds it, and :func:`build_protocol` imports that
module the first time the name is built, so a run loads only the protocol
it builds.  An adapter module has no import-time side effect; it defines

* ``build(topology, config=None, on_reply=None) -> ConsensusProtocol``,
  which places the nodes, and
* ``CONFIG_CLS``, the protocol's own configuration dataclass.

Adding a protocol is one adapter module and one row in the table
(ARCHITECTURE.md, "Adding a protocol", has the template).  Passing a
config of the wrong type is a :class:`TypeError` so that a mis-wired
experiment fails loudly instead of silently using defaults.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Optional

from repro.protocols.base import ConsensusProtocol
from repro.sim.topology import Topology

__all__ = ["BUILTIN_PROTOCOLS", "registered_protocols", "build_protocol"]

#: Protocol name -> the adapter module that builds it, in listing order.
BUILTIN_PROTOCOLS: Dict[str, str] = {
    "canopus": "repro.protocols.canopus",
    "zkcanopus": "repro.protocols.canopus",
    "epaxos": "repro.protocols.epaxos",
    "zookeeper": "repro.protocols.zookeeper",
}


def registered_protocols() -> List[str]:
    """Names of every protocol, in table order.  Imports no adapter."""
    return list(BUILTIN_PROTOCOLS)


def build_protocol(
    name: str,
    topology: Topology,
    config: Any = None,
    on_reply: Optional[Callable[..., None]] = None,
) -> ConsensusProtocol:
    """Construct the named protocol on ``topology`` through its adapter.

    The protocol is named by its registry key, so one adapter can serve
    two names (``canopus`` and ``zkcanopus``).
    """
    if name not in BUILTIN_PROTOCOLS:
        raise ValueError(f"unknown protocol {name!r}; registered: {', '.join(BUILTIN_PROTOCOLS)}")
    adapter = importlib.import_module(BUILTIN_PROTOCOLS[name])
    if config is not None and not isinstance(config, adapter.CONFIG_CLS):
        raise TypeError(
            f"protocol {name!r} expects a {adapter.CONFIG_CLS.__name__} config, "
            f"got {type(config).__name__}"
        )
    if not topology.server_hosts:
        raise ValueError(f"cannot deploy protocol {name!r}: the topology has no server hosts")
    protocol = adapter.build(topology, config=config, on_reply=on_reply)
    protocol.name = name
    return protocol
