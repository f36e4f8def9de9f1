"""The :class:`Runtime` interface protocol nodes are written against.

A runtime provides four things:

* a clock (:meth:`Runtime.now`),
* message transmission (through the :class:`Transport` facade),
* one-shot timers (:meth:`Runtime.after`), and
* a deterministic random stream (:attr:`Runtime.rng`).

Protocol nodes register a message handler with :meth:`Runtime.set_handler`
and from then on are purely reactive: every state transition happens inside
a message delivery or a timer callback.

All protocol egress goes through :attr:`Runtime.transport` rather than
calling :meth:`Runtime.send` directly.  The facade gives every substrate
(simulator, asyncio, a future kernel-bypass transport) one place to apply
wire-size estimation, per-node traffic accounting, and batching — the
simulated network coalesces same-destination deliveries into single
scheduled events, and because every protocol routes through the same
facade, that batching applies uniformly.
"""

from __future__ import annotations

import abc
import random
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = ["Runtime", "Timer", "Transport", "estimate_size", "TIMER_SLACK_S"]

#: A timer that re-arms itself for "the rest of" an interval treats a
#: remainder this small as elapsed: substrates add the delay to their clock,
#: which can land an ulp short of the deadline, and a remainder below the
#: clock's resolution would re-arm at the same instant forever.
TIMER_SLACK_S = 1e-9


def estimate_size(message: Any) -> int:
    """Best-effort estimate of a message's wire size in bytes.

    Messages that care about their size (all protocol messages in this
    repository) expose a ``wire_size()`` method; anything else is charged a
    small fixed cost.
    """
    wire_size = getattr(message, "wire_size", None)
    if callable(wire_size):
        return int(wire_size())
    if isinstance(message, (bytes, bytearray)):
        return len(message)
    if isinstance(message, str):
        return len(message.encode("utf-8"))
    return 64


class Timer:
    """Handle for a scheduled callback; supports cancellation."""

    def __init__(self, cancel: Callable[[], None]) -> None:
        self._cancel = cancel
        self.cancelled = False

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            self._cancel()


class Transport:
    """Uniform message-egress facade for one node.

    Every protocol send funnels through here, which provides:

    * wire-size resolution (explicit ``size_bytes`` or :func:`estimate_size`),
    * per-node traffic counters independent of the substrate, and
    * a single choke point for substrate-level batching — the simulated
      network batches same-destination deliveries, so routing all sends
      through the facade makes that optimization protocol-agnostic.
    """

    __slots__ = ("runtime", "messages_sent", "bytes_sent", "_groups", "_obs")

    def __init__(self, runtime: "Runtime") -> None:
        self.runtime = runtime
        self.messages_sent = 0
        self.bytes_sent = 0
        #: Memoized self-filtered destination lists, keyed by the (tuple)
        #: destination group protocols pass for their stable fan-outs.
        self._groups: dict = {}
        #: Observability hook (``repro.obs.Tracer``); ``None`` = off.  On
        #: the simulator substrate hops are recorded at the network layer
        #: instead (richer timing), so ``_SimTransport`` never reads this.
        self._obs = None

    def send(self, dst: str, message: Any, size_bytes: Optional[int] = None) -> None:
        """Send ``message`` to the node named ``dst``."""
        size = size_bytes if size_bytes is not None else estimate_size(message)
        self.messages_sent += 1
        self.bytes_sent += size
        obs = self._obs
        if obs is not None:
            obs.transport_send(self.runtime.node_id, dst, message, size)
        self.runtime.send(dst, message, size)

    def broadcast(self, destinations: Iterable[str], message: Any, size_bytes: Optional[int] = None) -> None:
        """Send one logical ``message`` to every destination except the owner.

        The wire size is resolved once for the whole group (``wire_size()``
        on a large batch message is O(batch), so per-peer recomputation was
        a real cost at high fan-out) and the group is handed to the
        runtime's multicast primitive: on the simulator that is the
        network-layer fast path, which charges identical per-destination
        costs but allocates one shared logical message and one transmit
        event for the group.
        """
        size = size_bytes if size_bytes is not None else estimate_size(message)
        if type(destinations) is tuple:
            # Stable fan-out groups (replica sets) arrive as tuples; the
            # self-filtered list is computed once per distinct group rather
            # than once per send.
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
        count = len(dsts)
        self.messages_sent += count
        self.bytes_sent += size * count
        obs = self._obs
        if obs is not None:
            node_id = self.runtime.node_id
            for dst in dsts:
                obs.transport_send(node_id, dst, message, size)
        self.runtime.multicast(dsts, message, size)


class Runtime(abc.ABC):
    """Abstract transport/scheduling environment for one protocol node."""

    #: Name (address) of the node this runtime belongs to.
    node_id: str
    #: Deterministic random stream private to this node.
    rng: random.Random

    @property
    def transport(self) -> Transport:
        """The egress facade all protocol sends route through (lazily built)."""
        facade = getattr(self, "_transport", None)
        if facade is None:
            facade = Transport(self)
            self._transport = facade
        return facade

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds (simulated or monotonic wall time)."""

    @abc.abstractmethod
    def send(self, dst: str, message: Any, size_bytes: Optional[int] = None) -> None:
        """Substrate-level send primitive; protocols use :attr:`transport`.

        ``size_bytes`` lets protocols report the wire size of a message for
        bandwidth accounting; when omitted, the runtime estimates it from
        the message itself (see :func:`estimate_size`).
        """

    def multicast(self, dsts: Sequence[str], message: Any, size_bytes: Optional[int] = None) -> None:
        """Substrate-level fan-out primitive; protocols use
        :meth:`Transport.broadcast`.

        The default implementation degenerates to sequential sends, which
        is always behaviourally correct; substrates with a native fan-out
        path (the simulator's :meth:`repro.sim.network.Host.multicast`)
        override it.
        """
        size = size_bytes if size_bytes is not None else estimate_size(message)
        for dst in dsts:
            self.send(dst, message, size)

    @abc.abstractmethod
    def after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` once after ``delay`` seconds."""

    @abc.abstractmethod
    def set_handler(self, handler: Callable[[str, Any], None]) -> None:
        """Register the ``handler(sender, message)`` delivery callback."""

    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once at absolute time ``when`` (no cancel handle).

        Fire-and-forget variant of :meth:`after` for hot-path schedulers
        that manage their own lifecycle (the callback must check its own
        liveness); substrates with a cheaper absolute-time primitive
        override it.
        """
        delay = when - self.now()
        self.after(delay if delay > 0.0 else 0.0, callback)

    # ------------------------------------------------------------------
    # Convenience helpers shared by all runtimes
    # ------------------------------------------------------------------
    def attach_tracer(self, tracer: Any) -> None:
        """Install an observability hook on this runtime's egress path.

        The base implementation hooks the transport facade (substrates
        without a deeper vantage point); the simulator runtime overrides
        this to hook the network delivery path instead, where hop timing
        (queueing + propagation) is actually known.
        """
        self.transport._obs = tracer

    def periodic(self, interval: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` every ``interval`` seconds until cancelled."""
        state = {"timer": None, "stopped": False}

        def tick() -> None:
            if state["stopped"]:
                return
            callback()
            if not state["stopped"]:
                state["timer"] = self.after(interval, tick)

        state["timer"] = self.after(interval, tick)

        def cancel() -> None:
            state["stopped"] = True
            inner = state["timer"]
            if inner is not None:
                inner.cancel()

        return Timer(cancel)
