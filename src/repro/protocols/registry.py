"""String-keyed registry of consensus protocols.

The registry decouples *naming* a protocol from *constructing* it: the
benchmark harness, the workload generator, the examples and the tests all
build systems with ``build_protocol("canopus", topology)`` and never import
a protocol module directly.

Built-in protocols are registered on first use: :data:`BUILTIN_PROTOCOLS`
maps each built-in name to the adapter module that registers it, and
:func:`protocol_spec` imports that module the first time the name is asked
for, so a run loads only the protocol it builds.  Adding a built-in
protocol is an adapter module that calls :func:`register_protocol` at
import time (ARCHITECTURE.md, "Adding a protocol", has the template) plus
one row in :data:`BUILTIN_PROTOCOLS`.  A protocol defined outside the package
registers itself when its own module is imported.

A factory has the signature::

    factory(topology, config=None, on_reply=None) -> ConsensusProtocol

``config`` is the protocol's own configuration dataclass (``config_cls``);
passing a config of the wrong type is a :class:`TypeError` so that a
mis-wired experiment fails loudly instead of silently using defaults.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.protocols.base import ConsensusProtocol
from repro.sim.topology import Topology

__all__ = [
    "BUILTIN_PROTOCOLS",
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


#: Built-in protocol name -> the adapter module that registers it, in
#: listing order.
BUILTIN_PROTOCOLS: Dict[str, str] = {
    "canopus": "repro.protocols.canopus",
    "zkcanopus": "repro.protocols.canopus",
    "epaxos": "repro.protocols.epaxos",
    "zookeeper": "repro.protocols.zookeeper",
}

_REGISTRY: Dict[str, ProtocolSpec] = {}


def register_protocol(
    name: str,
    factory: Optional[ProtocolFactory] = None,
    *,
    config_cls: Optional[type] = None,
    description: str = "",
    replace: bool = False,
) -> Callable[[ProtocolFactory], ProtocolFactory]:
    """Register ``factory`` under ``name``; usable as a decorator.

    ::

        @register_protocol("myproto", config_cls=MyConfig)
        def build_myproto(topology, config=None, on_reply=None):
            ...

    A built-in name is taken even before its adapter is imported: only the
    adapter itself registers it, and anything else must pass
    ``replace=True``.
    """

    def _register(fn: ProtocolFactory) -> ProtocolFactory:
        adapter = BUILTIN_PROTOCOLS.get(name)
        if adapter is not None and fn.__module__ != adapter:
            # The adapter registers first, so a replacement is never undone
            # by a later import of the adapter.
            importlib.import_module(adapter)
        if name in _REGISTRY and not replace:
            raise ValueError(f"protocol {name!r} is already registered")
        _REGISTRY[name] = ProtocolSpec(
            name=name,
            factory=fn,
            config_cls=config_cls,
            description=description,
        )
        return fn

    if factory is not None:
        return _register(factory)
    return _register


def unregister_protocol(name: str) -> None:
    """Remove a registration (tests use this to keep the registry clean).

    Built-in protocols cannot be unregistered.
    """
    if name in BUILTIN_PROTOCOLS:
        raise ValueError(f"protocol {name!r} is built in and cannot be unregistered")
    _REGISTRY.pop(name, None)


def registered_protocols() -> List[str]:
    """Names of every protocol: the built-ins in table order, then the rest
    in registration order.  Imports no adapter."""
    return [*BUILTIN_PROTOCOLS, *(name for name in _REGISTRY if name not in BUILTIN_PROTOCOLS)]


def protocol_spec(name: str) -> ProtocolSpec:
    """The spec registered under ``name``, importing its built-in adapter
    the first time it is asked for."""
    spec = _REGISTRY.get(name)
    if spec is None and name in BUILTIN_PROTOCOLS:
        importlib.import_module(BUILTIN_PROTOCOLS[name])
        spec = _REGISTRY.get(name)
    if spec is None:
        known = ", ".join(registered_protocols())
        raise ValueError(f"unknown protocol {name!r}; registered: {known}")
    return spec


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
    """Construct the named protocol on ``topology`` through its factory.

    The protocol is named by its registry key, so one factory can serve
    two names (``canopus`` and ``zkcanopus``).
    """
    spec = protocol_spec(name)
    if config is not None and spec.config_cls is not None and not isinstance(config, spec.config_cls):
        raise TypeError(
            f"protocol {name!r} expects a {spec.config_cls.__name__} config, "
            f"got {type(config).__name__}"
        )
    if not topology.server_hosts:
        raise ValueError(f"cannot deploy protocol {name!r}: the topology has no server hosts")
    protocol = spec.factory(topology, config=config, on_reply=on_reply)
    protocol.name = name
    return protocol
