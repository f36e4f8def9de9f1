"""Runtime backed by the discrete-event simulator, and its transport."""

from __future__ import annotations

import random
from functools import partial
from typing import Any, Callable, Optional

from repro.runtime.base import Runtime, Timer, estimate_size
from repro.sim.engine import Simulator
from repro.sim.network import Host

__all__ = ["SimRuntime", "Transport", "estimate_size"]


class Transport:
    """Message-egress facade of one node, bound straight to its simulated host.

    Every protocol send funnels through here, which provides:

    * wire-size resolution (explicit ``size_bytes`` or :func:`estimate_size`),
    * per-node traffic counters, and
    * one call to the host per send or broadcast: a broadcast is handed to
      :meth:`~repro.sim.network.Host.multicast`, which charges the same
      per-destination costs as sequential sends.

    A send is counted once the host has taken it, so one that raises (an
    unknown or unreachable destination) counts nowhere.
    """

    __slots__ = ("runtime", "host", "messages_sent", "bytes_sent", "_groups")

    def __init__(self, runtime: "SimRuntime") -> None:
        self.runtime = runtime
        self.host = runtime.host
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Memoized self-filtered destination lists, keyed by the (tuple)
        #: destination group protocols pass for their stable fan-outs.
        self._groups: dict = {}

    def send(self, dst: str, message: Any, size_bytes: Optional[int] = None) -> None:
        """Send ``message`` to the node named ``dst``."""
        size = size_bytes if size_bytes is not None else estimate_size(message)
        self.host.send(dst, message, size)
        self.messages_sent += 1
        self.bytes_sent += size

    def broadcast(self, destinations: Any, message: Any, size_bytes: Optional[int] = None) -> None:
        """Send one logical ``message`` to every destination except the owner.

        The wire size is resolved once for the whole group (``wire_size()``
        of a batch message is O(batch)).  Stable fan-out groups arrive as
        tuples, and each one's self-filtered list is computed once.
        """
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

    def __init__(self, simulator: Simulator, host: Host) -> None:
        self.simulator = simulator
        self.host = host
        self.node_id = host.name
        self.rng: random.Random = simulator.fork_rng(host.name)
        #: The clock, read without a Python frame: ``getattr`` bound to the
        #: event loop's ``_now`` by a C-level ``partial``.  It shadows the
        #: :meth:`now` method, which says the same in three frames
        #: (``SimRuntime.now`` -> ``Simulator.now`` -> ``EventLoop.now``).
        self.now: Callable[[], float] = partial(getattr, simulator.loop, "_now")
        self.transport = Transport(self)

    # ------------------------------------------------------------------
    def now(self) -> float:  # shadowed per instance; see __init__
        return self.simulator.now

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
