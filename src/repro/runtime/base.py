"""The :class:`Runtime` interface protocol nodes are written against.

A runtime provides four things:

* a clock (:meth:`Runtime.now`),
* message egress (its :attr:`Runtime.transport`),
* timers (:meth:`Runtime.after`, :meth:`Runtime.call_at` and
  :meth:`Runtime.periodic`), and
* a deterministic random stream (:attr:`Runtime.rng`).

Protocol nodes register a message handler with :meth:`Runtime.set_handler`
and from then on are purely reactive: every state transition happens inside
a message delivery or a timer callback.

The simulator's runtime and its one transport are in
:mod:`repro.runtime.sim_runtime`; the transport resolves wire sizes, counts
each node's traffic and hands a broadcast to the host's multicast.
"""

from __future__ import annotations

import abc
import random
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from repro.runtime.sim_runtime import Transport

__all__ = ["Runtime", "Timer", "estimate_size", "TIMER_SLACK_S"]

#: A timer that re-arms itself for "the rest of" an interval treats a
#: remainder this small as elapsed: the runtime adds the delay to its clock,
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


class Runtime(abc.ABC):
    """The scheduling and egress environment of one protocol node.

    It declares what protocol and workload code calls to run, and nothing
    else: :class:`~repro.runtime.sim_runtime.SimRuntime` implements it over
    a simulated host.  Tracing is not the runtime's business: the tracer
    hooks the network and its hosts (``repro.obs.attach_tracer``).
    """

    #: Name (address) of the node this runtime belongs to.
    node_id: str
    #: Deterministic random stream private to this node.
    rng: random.Random
    #: The egress facade every protocol send goes through.
    transport: Transport

    @abc.abstractmethod
    def now(self) -> float:
        """Current time in seconds."""

    @abc.abstractmethod
    def after(self, delay: float, callback: Callable[[], None]) -> Timer:
        """Run ``callback`` once after ``delay`` seconds."""

    @abc.abstractmethod
    def call_at(self, when: float, callback: Callable[[], None]) -> None:
        """Run ``callback`` once at absolute time ``when`` (no cancel handle).

        Fire-and-forget variant of :meth:`after` for hot-path schedulers
        that manage their own lifecycle: the callback must check its own
        liveness.
        """

    @abc.abstractmethod
    def set_handler(self, handler: Callable[[str, Any], None]) -> None:
        """Register the ``handler(sender, message)`` delivery callback."""

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
