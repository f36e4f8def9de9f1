"""Shared helpers for the protocol test suites."""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

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


def step_until(sim: Simulator, predicate: Callable[[], bool], deadline: float, what: str) -> None:
    """Step ``sim`` one event at a time until ``predicate()`` holds.

    Heartbeats and cycle timers never let the event queue run dry, so a
    bare stepping loop spins forever when what it waits for never happens.
    This one raises ``AssertionError`` naming ``what`` and the sim time once
    the clock has passed ``deadline`` with ``predicate()`` still false.
    """
    while not predicate():
        if not (sim.now <= deadline and sim.loop.step()):
            raise AssertionError(f"{what}: not by sim time {sim.now:.6f} s (deadline {deadline:.6f} s)")


def write(key: str, value: str, client: str = "client") -> ClientRequest:
    return ClientRequest(client_id=client, op=RequestType.WRITE, key=key, value=value)


def read(key: str, client: str = "client") -> ClientRequest:
    return ClientRequest(client_id=client, op=RequestType.READ, key=key)
