"""Deterministic discrete-event simulation engine.

The engine is a hierarchical timer wheel (calendar queue).  Near-future
events land in fixed-width time buckets; far-future events wait in an
overflow heap that cascades into the wheel as the clock advances.  Sim
time is already discretized by link serialization and CPU service times,
so bucket occupancy is high and most operations are O(1) list appends
instead of O(log n) heap churn.  Determinism is guaranteed by:

* a single seeded :class:`random.Random` instance owned by the simulator,
* a monotonically increasing sequence number that breaks ties between
  events scheduled for the same instant, and
* the absence of any wall-clock reads.

Execution order is the total order ``(time, priority, seq)`` — exactly
the order the original global binary heap (:class:`HeapEventLoop`, kept
as the differential-testing reference) produces.  The byte-identical-log
contract rests on this: at a fixed seed, both engines run the same
callbacks at the same simulated instants in the same order, so committed
logs and all modelled timings are identical and only wall-clock differs.

The counters mean what they say: ``processed_events`` is the number of
callbacks the loop has invoked and ``len(loop)`` the number of entries it
still holds.  The network layer's switch drains and idle-CPU wake-ups are
ordinary :meth:`EventLoop.schedule_fast` entries and are counted like any
other.

Protocol code never touches the engine directly; it talks to a
:class:`repro.runtime.sim_runtime.SimRuntime` which wraps the engine and a
:class:`repro.sim.network.Network`.
"""

from __future__ import annotations

import heapq
import itertools
import random
import zlib
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Dict, List, Optional

__all__ = ["Event", "EventLoop", "HeapEventLoop", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: Overflow-tick sentinel: larger than any reachable tick.
_NO_OVERFLOW = 1 << 62


@dataclass(order=True)
class Event:
    """A single scheduled callback.

    Events are ordered by ``(time, priority, seq)``.  ``priority`` lets the
    network layer deliver packets before application timers that fire at
    exactly the same instant, which keeps traces intuitive; ``seq`` makes
    ordering total and therefore deterministic.

    The loop's wheel stores ``(time, priority, seq, event)`` tuples rather
    than the events themselves: tuple comparison runs in C and almost
    always resolves on the first float, where the dataclass-generated
    ``__lt__`` builds two tuples per comparison in Python.  The dataclass
    ordering is kept for callers that sort events directly.

    Entries whose fourth element is a bare callable instead of an Event
    are the *fast path* used by :meth:`EventLoop.schedule_fast`: delivery
    queues re-arm themselves roughly once per network event, and those
    wake-ups are never cancelled, never labelled, and never inspected, so
    allocating an Event for each was pure overhead.
    """

    time: float
    priority: int
    seq: int
    callback: Callable[[], None] = field(compare=False)
    cancelled: bool = field(default=False, compare=False)
    label: str = field(default="", compare=False)
    loop: Optional["EventLoop"] = field(default=None, compare=False, repr=False)

    def cancel(self) -> None:
        """Mark the event so the loop skips it when popped."""
        if not self.cancelled:
            self.cancelled = True
            if self.loop is not None:
                self.loop._live -= 1


class EventLoop:
    """A timer-wheel based discrete event loop.

    The loop exposes :meth:`schedule` / :meth:`schedule_at` for enqueueing
    callbacks and :meth:`run` / :meth:`run_until` / :meth:`step` for
    execution.  Time is a ``float`` in **seconds**.

    Wheel layout: events whose tick (``int(time / bucket_width)``) falls
    within ``nbuckets`` of the wheel's base position are appended to their
    bucket; the bucket becomes the *current heap* (heapified once) when the
    base reaches it, so same-tick events drain in exact ``(time, priority,
    seq)`` order.  Events at or before the base tick are pushed straight
    into the current heap; events beyond the horizon wait in an overflow
    heap and cascade into buckets as the base advances past their tick.
    """

    #: Bucket width in seconds.  Link serialization (~0.1 µs) and CPU
    #: service (~4 µs) discretize the hot path well below this, so busy-run
    #: buckets hold a handful of events each (small per-tick heaps beat one
    #: global heap); 4096 buckets give a 32.8 ms horizon that covers
    #: batching windows and client think times, while heartbeats and long
    #: timeouts cascade in from the overflow heap.
    BUCKET_WIDTH = 8e-6
    NBUCKETS = 4096  # power of two (bucket index is ``tick & mask``)

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        #: Entries executed: bumped once per executed entry and by nothing
        #: else (``Host`` compares it to tell one event turn from the next).
        self._processed = 0
        #: Number of non-cancelled events in the wheel, so ``__len__`` is O(1).
        self._live = 0
        # Wheel state -------------------------------------------------
        self._width = self.BUCKET_WIDTH
        self._inv_width = 1.0 / self.BUCKET_WIDTH
        self._nbuckets = self.NBUCKETS
        self._mask = self.NBUCKETS - 1
        self._buckets: List[List[tuple]] = [[] for _ in range(self.NBUCKETS)]
        #: Tick currently stored in each (non-empty) bucket slot.  A slot
        #: only ever holds entries of a single tick: inserts that would mix
        #: wheel wraps in one slot go to the overflow heap instead (rare),
        #: so activating a bucket never needs to re-file entries.
        self._slot_tick: List[int] = [-1] * self.NBUCKETS
        #: Heap of entries due at or before the base tick.
        self._cur: List[tuple] = []
        #: Entries beyond the wheel horizon (or wrap-colliding), as a heap.
        self._overflow: List[tuple] = []
        #: Smallest tick in the overflow heap (sentinel when empty), so the
        #: bucket scan's cascade check is one int compare.
        self._ovf_tick = _NO_OVERFLOW
        #: Entries stored in ``_buckets`` (including cancelled ghosts);
        #: lets the scan fast-forward when only overflow remains.
        self._wheel_count = 0
        self._base = 0
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
    def _insert(self, entry: tuple) -> None:
        tick = int(entry[0] * self._inv_width)
        base = self._base
        if tick <= base:
            heappush(self._cur, entry)
        elif tick - base < self._nbuckets:
            idx = tick & self._mask
            slot = self._buckets[idx]
            if slot:
                if self._slot_tick[idx] == tick:
                    slot.append(entry)
                    self._wheel_count += 1
                else:
                    # Wrap collision: the slot belongs to another tick.
                    heappush(self._overflow, entry)
                    if tick < self._ovf_tick:
                        self._ovf_tick = tick
            else:
                slot.append(entry)
                self._slot_tick[idx] = tick
                self._wheel_count += 1
        else:
            heappush(self._overflow, entry)
            if tick < self._ovf_tick:
                self._ovf_tick = tick

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 10,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 10,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated time ``when``."""
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        seq = next(self._seq)
        event = Event(
            time=when, priority=priority, seq=seq, callback=callback, label=label, loop=self
        )
        self._insert((when, priority, seq, event))
        self._live += 1
        return event

    def schedule_fast(self, when: float, callback: Callable[[], None], priority: int = 10) -> None:
        """Schedule a non-cancellable callback at absolute time ``when``.

        Skips the :class:`Event` wrapper entirely — the wheel entry carries
        the bare callable.  Meant for the network delivery queues, which
        re-arm once per delivery burst and never cancel; ordering semantics
        ((time, priority, seq)) are identical to :meth:`schedule_at`.
        """
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        # _insert, inlined: this is the single hottest call in a saturation
        # run (one per delivery-queue re-arm), so it skips the extra frame.
        entry = (when, priority, next(self._seq), callback)
        tick = int(when * self._inv_width)
        base = self._base
        if tick <= base:
            heappush(self._cur, entry)
        elif tick - base < self._nbuckets:
            idx = tick & self._mask
            slot = self._buckets[idx]
            if slot:
                if self._slot_tick[idx] == tick:
                    slot.append(entry)
                    self._wheel_count += 1
                else:
                    heappush(self._overflow, entry)
                    if tick < self._ovf_tick:
                        self._ovf_tick = tick
            else:
                slot.append(entry)
                self._slot_tick[idx] = tick
                self._wheel_count += 1
        else:
            heappush(self._overflow, entry)
            if tick < self._ovf_tick:
                self._ovf_tick = tick
        self._live += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _advance(self) -> Optional[tuple]:
        """Advance the base past empty buckets; return the next entry.

        Called only when the current heap is empty.  Cascades overflow
        entries into the wheel as their ticks come within the horizon, and
        fast-forwards across fully-empty stretches instead of scanning
        them bucket by bucket.
        """
        overflow = self._overflow
        inv_width = self._inv_width
        ovf_tick = self._ovf_tick
        if self._wheel_count == 0:
            if not overflow:
                self._cur = []
                return None
            # Jump straight to the earliest overflow tick.
            self._base = ovf_tick - 1
        buckets = self._buckets
        mask = self._mask
        slot_ticks = self._slot_tick
        base = self._base
        while True:
            base += 1
            current = None
            if ovf_tick <= base:
                # Overflow entries whose tick has come due (beyond the
                # horizon at insert, or wrap-colliding) cascade in now.
                current = []
                while overflow and int(overflow[0][0] * inv_width) <= base:
                    current.append(heappop(overflow))
                ovf_tick = int(overflow[0][0] * inv_width) if overflow else _NO_OVERFLOW
                self._ovf_tick = ovf_tick
            idx = base & mask
            slot = buckets[idx]
            if slot and slot_ticks[idx] == base:
                self._wheel_count -= len(slot)
                if current:
                    current.extend(slot)
                    slot.clear()
                else:
                    current = slot
                    buckets[idx] = []
            if current:
                self._base = base
                if len(current) == 1:
                    entry = current[0]
                    current.clear()
                    self._cur = current
                    return entry
                self._cur = current
                heapify(current)
                return heappop(current)
            if self._wheel_count == 0:
                if not overflow:
                    self._base = base
                    self._cur = []
                    return None
                base = ovf_tick - 1

    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` when empty."""
        while True:
            if self._cur:
                entry = heappop(self._cur)
            else:
                entry = self._advance()
                if entry is None:
                    return False
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    continue
                # Mark the event consumed so a late cancel() (e.g. a timer
                # callback cancelling its own timer) cannot decrement again.
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

    def run(self, max_events: Optional[int] = None) -> None:
        """Run until the event wheel is exhausted (or ``max_events``)."""
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

        On return the clock is advanced to ``deadline`` even if the wheel
        drained earlier, so repeated ``run_until`` calls behave like a
        sequence of measurement windows.
        """
        self._deadline = deadline
        # Hot loop: local aliases, no step() indirection, Event handling
        # inlined.  ``self._cur`` is re-read after every callback because
        # callbacks schedule new events and _advance replaces the list.
        pop = heappop
        while True:
            cur = self._cur
            if cur:
                entry = pop(cur)
            else:
                entry = self._advance()
                if entry is None:
                    break
            if entry[0] > deadline:
                # Not due yet: put it back (its tick <= the base tick).
                heappush(self._cur, entry)
                break
            event = entry[3]
            if event.__class__ is Event:
                if event.cancelled:
                    continue
                event.cancelled = True
                callback = event.callback
            else:
                callback = event
            when = entry[0]
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


class HeapEventLoop:
    """The original global-binary-heap event loop.

    Kept as the differential-testing reference for the timer wheel: both
    engines must execute any schedule stream in the identical ``(time,
    priority, seq)`` order.  Not used by :class:`Simulator`.
    """

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        self._live = 0
        self._quiesce_hooks: List[Callable[[], None]] = []
        self._deadline = float("inf")

    @property
    def now(self) -> float:
        return self._now

    @property
    def processed_events(self) -> int:
        return self._processed

    def __len__(self) -> int:
        return self._live

    def add_quiesce_hook(self, hook: Callable[[], None]) -> None:
        self._quiesce_hooks.append(hook)

    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 10,
        label: str = "",
    ) -> Event:
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, priority=priority, label=label)

    def schedule_at(
        self,
        when: float,
        callback: Callable[[], None],
        *,
        priority: int = 10,
        label: str = "",
    ) -> Event:
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        seq = next(self._seq)
        event = Event(
            time=when, priority=priority, seq=seq, callback=callback, label=label, loop=self
        )
        heapq.heappush(self._heap, (when, priority, seq, event))
        self._live += 1
        return event

    def schedule_fast(self, when: float, callback: Callable[[], None], priority: int = 10) -> None:
        if when < self._now:
            raise ValueError(f"cannot schedule at {when} before now={self._now}")
        heapq.heappush(self._heap, (when, priority, next(self._seq), callback))
        self._live += 1

    def step(self) -> bool:
        while self._heap:
            entry = heapq.heappop(self._heap)
            event = entry[3]
            if event.__class__ is not Event:
                if entry[0] < self._now:
                    raise SimulationError("event heap produced an event in the past")
                self._now = entry[0]
                self._processed += 1
                self._live -= 1
                event()
                return True
            if event.cancelled:
                continue
            if event.time < self._now:
                raise SimulationError("event heap produced an event in the past")
            self._now = event.time
            self._processed += 1
            self._live -= 1
            event.cancelled = True
            event.callback()
            return True
        return False

    def run(self, max_events: Optional[int] = None) -> None:
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
        self._deadline = deadline
        while self._heap:
            entry = self._heap[0]
            head = entry[3]
            if head.__class__ is Event and head.cancelled:
                heapq.heappop(self._heap)
                continue
            if entry[0] > deadline:
                break
            self.step()
        if self._now < deadline:
            self._now = deadline
        for hook in self._quiesce_hooks:
            hook()

    def stop(self) -> None:
        self._running = False


class Simulator:
    """Top-level container binding an event loop, RNG and named components.

    A :class:`Simulator` is the unit of reproducibility: constructing two
    simulators with the same seed and driving them with the same inputs
    yields byte-identical traces.
    """

    def __init__(self, seed: int = 0) -> None:
        self.loop = EventLoop()
        self.seed = seed
        self.rng = random.Random(seed)
        self.components: Dict[str, Any] = {}

    # Convenience passthroughs -----------------------------------------
    @property
    def now(self) -> float:
        return self.loop.now

    def schedule(self, delay: float, callback: Callable[[], None], **kwargs: Any) -> Event:
        return self.loop.schedule(delay, callback, **kwargs)

    def run(self, max_events: Optional[int] = None) -> None:
        self.loop.run(max_events=max_events)

    def run_until(self, deadline: float) -> None:
        self.loop.run_until(deadline)

    # Component registry -------------------------------------------------
    def register(self, name: str, component: Any) -> Any:
        """Register a named component (host, protocol node, collector...)."""
        if name in self.components:
            raise SimulationError(f"component {name!r} already registered")
        self.components[name] = component
        return component

    def get(self, name: str) -> Any:
        return self.components[name]

    def fork_rng(self, label: str) -> random.Random:
        """Derive an independent, deterministic RNG stream for ``label``.

        The label is folded in with CRC-32 rather than builtin ``hash``:
        string hashes are salted per process, so seeding from them would
        silently make "deterministic" streams differ between runs.
        """
        derived_seed = (self.seed * 1_000_003 + zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF
        return random.Random(derived_seed)
