"""String-keyed registry of consensus protocols.

The registry decouples *naming* a protocol from *constructing* it: the
benchmark harness, the workload generator, the examples and the tests all
build systems with ``build_protocol("canopus", topology)`` and never import
a protocol module directly.  Adding a protocol is therefore a one-file
change: write an adapter module that calls :func:`register_protocol` at
import time (see :mod:`repro.protocols.raft_kv` for the template) and
import it from :mod:`repro.protocols`.

A factory has the signature::

    factory(topology, config=None, on_reply=None) -> ConsensusProtocol

``config`` is the protocol's own configuration dataclass (``config_cls``);
passing a config of the wrong type is a :class:`TypeError` so that a
mis-wired experiment fails loudly instead of silently using defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.protocols.base import ConsensusProtocol
from repro.sim.topology import Topology

__all__ = [
    "ProtocolSpec",
    "register_protocol",
    "unregister_protocol",
    "registered_protocols",
    "protocol_spec",
    "build_protocol",
    "default_config",
]

ProtocolFactory = Callable[..., ConsensusProtocol]


@dataclass(frozen=True)
class ProtocolSpec:
    """Everything the harness needs to know about one registered protocol."""

    name: str
    factory: ProtocolFactory
    config_cls: Optional[type] = None
    description: str = ""
    #: Consistency level of the protocol's *default* read path
    #: ("linearizable" or "sequential").  The read-consistency conformance
    #: suite holds every protocol claiming "linearizable" to the
    #: linearizability checker on both substrates; "sequential" documents a
    #: deliberately weaker read path (ZooKeeper-style local reads).
    read_consistency: str = "linearizable"


_REGISTRY: Dict[str, ProtocolSpec] = {}


def register_protocol(
    name: str,
    factory: Optional[ProtocolFactory] = None,
    *,
    config_cls: Optional[type] = None,
    description: str = "",
    read_consistency: str = "linearizable",
    replace: bool = False,
) -> Callable[[ProtocolFactory], ProtocolFactory]:
    """Register ``factory`` under ``name``; usable as a decorator.

    ::

        @register_protocol("myproto", config_cls=MyConfig)
        def build_myproto(topology, config=None, on_reply=None):
            ...
    """

    def _register(fn: ProtocolFactory) -> ProtocolFactory:
        if name in _REGISTRY and not replace:
            raise ValueError(f"protocol {name!r} is already registered")
        _REGISTRY[name] = ProtocolSpec(
            name=name,
            factory=fn,
            config_cls=config_cls,
            description=description,
            read_consistency=read_consistency,
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_protocol(name: str) -> None:
    """Remove a registration (tests use this to keep the registry clean)."""
    _REGISTRY.pop(name, None)


def registered_protocols() -> List[str]:
    """Names of every registered protocol, in registration order."""
    return list(_REGISTRY)


def protocol_spec(name: str) -> ProtocolSpec:
    try:
        return _REGISTRY[name]
    except KeyError:
        known = ", ".join(registered_protocols()) or "<none>"
        raise ValueError(f"unknown protocol {name!r}; registered: {known}") from None


def default_config(name: str) -> Any:
    """A fresh default configuration object for ``name`` (or ``None``)."""
    spec = protocol_spec(name)
    return spec.config_cls() if spec.config_cls is not None else None


def build_protocol(
    name: str,
    topology: Topology,
    config: Any = None,
    on_reply: Optional[Callable[..., None]] = None,
) -> ConsensusProtocol:
    """Construct the named protocol on ``topology`` through its factory."""
    spec = protocol_spec(name)
    if config is not None and spec.config_cls is not None and not isinstance(config, spec.config_cls):
        raise TypeError(
            f"protocol {name!r} expects a {spec.config_cls.__name__} config, "
            f"got {type(config).__name__}"
        )
    if not topology.server_hosts:
        raise ValueError(f"cannot deploy protocol {name!r}: the topology has no server hosts")
    return spec.factory(topology, config=config, on_reply=on_reply)
