"""Runtime backed by the discrete-event simulator."""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Optional

from repro.runtime.base import Runtime, Timer, Transport, estimate_size
from repro.sim.engine import Simulator
from repro.sim.network import Host, Network

__all__ = ["SimRuntime", "estimate_size"]


class _SimTransport(Transport):
    """Transport facade bound straight to the simulated host.

    Skips the generic ``Transport -> Runtime -> Host`` hop on the
    per-message egress path: counters are identical, the host primitives
    are called directly (one saved Python frame per send/broadcast).  A
    send is counted once the host has taken it, so one that raises (an
    unknown or unreachable destination) counts nowhere.
    """

    __slots__ = ("host",)

    def __init__(self, runtime: "SimRuntime") -> None:
        super().__init__(runtime)
        self.host = runtime.host

    def send(self, dst: str, message: Any, size_bytes: Optional[int] = None) -> None:
        size = size_bytes if size_bytes is not None else estimate_size(message)
        self.host.send(dst, message, size)
        self.messages_sent += 1
        self.bytes_sent += size

    def broadcast(self, destinations: Any, message: Any, size_bytes: Optional[int] = None) -> None:
        size = size_bytes if size_bytes is not None else estimate_size(message)
        if type(destinations) is tuple:
            dsts = self._groups.get(destinations)
            if dsts is None:
                node_id = self.runtime.node_id
                dsts = [dst for dst in destinations if dst != node_id]
                self._groups[destinations] = dsts
        else:
            node_id = self.runtime.node_id
            dsts = [dst for dst in destinations if dst != node_id]
        if not dsts:
            return
        self.host.multicast(dsts, message, size)
        count = len(dsts)
        self.messages_sent += count
        self.bytes_sent += size * count


class SimRuntime(Runtime):
    """Adapts one simulated :class:`~repro.sim.network.Host` to the Runtime API."""

    def __init__(self, simulator: Simulator, network: Network, host: Host) -> None:
        self.simulator = simulator
        self.network = network
        self.host = host
        self.node_id = host.name
        self.rng: random.Random = simulator.fork_rng(host.name)
        #: The clock, read without a Python frame: ``getattr`` bound to the
        #: event loop's ``_now`` by a C-level ``partial``.  It shadows the
        #: :meth:`now` method, which says the same in three frames
        #: (``SimRuntime.now`` -> ``Simulator.now`` -> ``EventLoop.now``).
        self.now: Callable[[], float] = partial(getattr, simulator.loop, "_now")
        self._transport = _SimTransport(self)

    # ------------------------------------------------------------------
    def now(self) -> float:  # shadowed per instance; see __init__
        return self.simulator.now

    def send(self, dst: str, message: Any, size_bytes: Optional[int] = None) -> None:
        size = size_bytes if size_bytes is not None else estimate_size(message)
        self.host.send(dst, message, size)

    def multicast(self, dsts, message: Any, size_bytes: Optional[int] = None) -> None:
        size = size_bytes if size_bytes is not None else estimate_size(message)
        self.host.multicast(dsts, message, size)

    def after(self, delay: float, callback: Callable[[], None]) -> Timer:
        return Timer(self.simulator.loop.schedule(delay, callback).cancel)

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        # Same (time, priority, seq) ordering as `after` (priority 10,
        # shared seq counter) without the Event/Timer allocation.
        self.simulator.loop.schedule_fast(when, callback, 10)

    def set_handler(self, handler: Callable[[str, Any], None]) -> None:
        # Registered directly on the host: delivery then runs
        # handler(sender, payload) with no runtime-level indirection
        # (~one saved Python frame per delivered message).
        self.host.set_handler(handler)

    def attach_tracer(self, tracer: Any) -> None:
        """Hook the sim delivery plane: hops are recorded at the network
        layer (packet creation + rx dispatch), not the transport facade,
        so the trace sees real queueing/propagation times."""
        self.host._obs = tracer
        self.network._obs = tracer
