"""Shared helpers for the protocol test suites."""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.canopus.config import CanopusConfig
from repro.protocols import build_protocol
from repro.protocols.canopus import CanopusProtocol
from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.sim.topology import Topology, build_single_datacenter


def fast_config(**overrides) -> CanopusConfig:
    """A Canopus configuration tuned for quick deterministic tests."""
    defaults = dict(
        lot_height=2,
        cycle_interval_s=0.01,
        pipelining=False,
        heartbeat_interval_s=0.02,
        fetch_timeout_s=0.2,
    )
    defaults.update(overrides)
    return CanopusConfig(**defaults)


def build_canopus_on_sim(
    nodes_per_rack: int = 3,
    racks: int = 3,
    config: Optional[CanopusConfig] = None,
    seed: int = 9,
) -> Tuple[Simulator, Topology, CanopusProtocol, List[ClientReply]]:
    """A started Canopus deployment on the single-DC topology with a reply sink."""
    simulator = Simulator(seed=seed)
    topology = build_single_datacenter(simulator, nodes_per_rack=nodes_per_rack, racks=racks)
    replies: List[ClientReply] = []
    protocol = build_protocol("canopus", topology, config=config or fast_config(), on_reply=replies.append)
    protocol.start()
    return simulator, topology, protocol, replies


def write(key: str, value: str, client: str = "client") -> ClientRequest:
    return ClientRequest(client_id=client, op=RequestType.WRITE, key=key, value=value)


def read(key: str, client: str = "client") -> ClientRequest:
    return ClientRequest(client_id=client, op=RequestType.READ, key=key)
