"""Deterministic discrete-event simulation engine.

The engine is one global binary heap of ``(time, priority, seq, entry)``
tuples.  Execution order is the total order ``(time, priority, seq)``:
``priority`` lets the network layer deliver packets before application
timers due at exactly the same instant, and ``seq`` — one counter shared
by every scheduling call — breaks the remaining ties in schedule order.
Determinism is guaranteed by:

* a single seeded :class:`random.Random` instance owned by the simulator,
* the shared sequence counter above, and
* the absence of any wall-clock reads.

Cancellation is lazy: a cancelled :class:`Event` stays in the heap and is
skipped when popped, but it drops its callback at the cancel, so it pins
nothing until then.  The counters mean what they say:
``processed_events`` is the number of callbacks the loop has invoked and
``len(loop)`` the number of live entries it still holds.  The network
layer's switch drains and delivery-queue flushes are ordinary
:meth:`EventLoop.schedule_fast` entries and are counted like any other,
a flush that finds itself superseded by an earlier re-arm included.

Protocol code never touches the engine directly; it talks to a
:class:`repro.runtime.sim_runtime.SimRuntime` which wraps the engine and a
:class:`repro.sim.network.Network`.
"""

from __future__ import annotations

import itertools
import random
import zlib
from heapq import heappop, heappush
from typing import Callable, List, Optional

__all__ = ["Event", "EventLoop", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


class Event:
    """A cancellable handle on one scheduled callback.

    The heap entry carries the event's ``(time, priority, seq)``; the
    handle holds only what cancellation needs.  Entries whose fourth
    element is a bare callable instead of an Event are the *fast path*
    used by :meth:`EventLoop.schedule_fast`: delivery queues re-arm
    themselves roughly once per network event and never cancel, so
    allocating a handle for each would be pure overhead.
    """

    __slots__ = ("callback", "cancelled", "loop")

    def __init__(self, callback: Callable[[], None], loop: "EventLoop") -> None:
        self.callback = callback
        #: Set on cancel *and* when the loop runs the event, so a late
        #: cancel() (a timer callback cancelling its own timer) is a no-op.
        self.cancelled = False
        self.loop = loop

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped, and let go of
        the callback: the entry stays in the heap until its instant, but
        pins none of the state the callback closes over."""
        if not self.cancelled:
            self.cancelled = True
            self.callback = None
            self.loop._live -= 1


class EventLoop:
    """A binary-heap discrete event loop.

    The loop exposes :meth:`schedule` / :meth:`schedule_at` for enqueueing
    callbacks and :meth:`run` / :meth:`run_until` / :meth:`step` for
    execution.  Time is a ``float`` in **seconds**.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        #: Entries executed: bumped once per executed entry and by nothing
        #: else (``Host`` compares it to tell one event turn from the next).
        self._processed = 0
        #: Number of non-cancelled entries in the heap, so ``__len__`` is O(1).
        self._live = 0
        #: Callbacks invoked when :meth:`run_until` reaches its deadline
        #: (the network layer uses this to settle lazily-delivered backlog,
        #: so link / switch / CPU counters read at a window edge include
        #: everything due by then).
        self._quiesce_hooks: List[Callable[[], None]] = []
        #: Deadline of the active :meth:`run_until` window (``inf`` under
        #: :meth:`run`).  Lookahead consumers (the network's switch drains)
        #: cap eager work here, so counters read at a window edge include
        #: nothing that happens after it.
        self._deadline = float("inf")

    # ------------------------------------------------------------------
    # Clock
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (useful for budget guards)."""
        return self._processed

    def __len__(self) -> int:
        return self._live

    def add_quiesce_hook(self, hook: Callable[[], None]) -> None:
        """Run ``hook`` whenever :meth:`run_until` reaches its deadline."""
        self._quiesce_hooks.append(hook)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, callback: Callable[[], None], *, priority: int = 10) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority)

    def schedule_at(
        self, when: float, callback: Callable[[], None], *, priority: int = 10
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        event = Event(callback, self)
        heappush(self._heap, (when, priority, next(self._seq), event))
        self._live += 1
        return event

    def schedule_fast(self, when: float, callback: Callable[[], None], priority: int = 10) -> None:
        """Schedule a non-cancellable callback at absolute time ``when``.

        Skips the :class:`Event` handle entirely — the heap entry carries
        the bare callable.  Meant for the network delivery queues, which
        re-arm once per delivery burst and never cancel; ordering semantics
        ((time, priority, seq)) are identical to :meth:`schedule_at`.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        heappush(self._heap, (when, priority, next(self._seq), callback))
        self._live += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when empty."""
        heap = self._heap
        while heap:
            entry = heappop(heap)
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    continue
                event.cancelled = True
                callback = event.callback
            else:
                # schedule_fast entry: the callable itself, never cancelled.
                callback = event
            if entry[0] < self._now:
                raise SimulationError("event heap produced an event in the past")
            self._now = entry[0]
            self._processed += 1
            self._live -= 1
            callback()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the heap is exhausted (or ``max_events``)."""
        self._running = True
        self._deadline = float("inf")
        executed = 0
        try:
            while self._running and self.step():
                executed += 1
                if max_events is not None and executed >= max_events:
                    return
        finally:
            self._running = False

    def run_until(self, deadline: float) -> None:
        """Run events with timestamps strictly ``<= deadline``.

        On return the clock is advanced to ``deadline`` even if the heap
        drained earlier, so repeated ``run_until`` calls behave like a
        sequence of measurement windows.
        """
        self._deadline = deadline
        # Hot loop: local aliases, no step() indirection, Event handling
        # inlined.  The heap list itself is never replaced, so the alias
        # sees every entry the callbacks schedule.
        heap = self._heap
        pop = heappop
        while heap:
            entry = pop(heap)
            when = entry[0]
            if when > deadline:
                # Not due yet: put it back.
                heappush(heap, entry)
                break
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    continue
                event.cancelled = True
                callback = event.callback
            else:
                callback = event
            if when < self._now:
                raise SimulationError("event heap produced an event in the past")
            self._now = when
            self._processed += 1
            self._live -= 1
            callback()
        if self._now < deadline:
            self._now = deadline
        for hook in self._quiesce_hooks:
            hook()

    def stop(self) -> None:
        """Stop a :meth:`run` in progress after the current event."""
        self._running = False


class Simulator:
    """Top-level container binding an event loop and a seeded RNG.

    A :class:`Simulator` is the unit of reproducibility: constructing two
    simulators with the same seed and driving them with the same inputs
    yields byte-identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self.loop = EventLoop()
        self.seed = seed
        self.rng = random.Random(seed)

    # Convenience passthroughs -----------------------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    def schedule(self, delay: float, callback: Callable[[], None], *, priority: int = 10) -> Event:
        return self.loop.schedule(delay, callback, priority=priority)

    def run(self, max_events: Optional[int] = None) -> None:
        self.loop.run(max_events=max_events)

    def run_until(self, deadline: float) -> None:
        self.loop.run_until(deadline)

    def fork_rng(self, label: str) -> random.Random:
        """Derive an independent, deterministic RNG stream for ``label``.

        The label is folded in with CRC-32 rather than builtin ``hash``:
        string hashes are salted per process, so seeding from them would
        silently make "deterministic" streams differ between runs.
        """
        derived_seed = (self.seed * 1_000_003 + zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF
        return random.Random(derived_seed)
