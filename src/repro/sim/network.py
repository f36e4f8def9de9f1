"""Simulated network: hosts, switches, links, and packet delivery.

The network model is intentionally simple but captures the three effects the
Canopus paper's evaluation hinges on:

1. **Per-hop propagation latency.**  Intra-rack hops are cheap, hops across
   the aggregation switch cost more, and inter-datacenter hops use the wide
   area latencies of Table 1.
2. **Link serialization and queuing.**  Every link has a bandwidth; a packet
   occupies the link for ``size / bandwidth`` seconds and packets queue FIFO
   behind each other.  Oversubscribed aggregation links therefore become the
   bottleneck for broadcast-heavy protocols (EPaxos) exactly as in §8.1.
3. **Receiver CPU service time.**  Each host processes incoming messages
   serially with a configurable per-message and per-byte cost, which is what
   saturates a centralized coordinator (the ZooKeeper leader in Fig. 5).

Routing is shortest-path over the host/switch graph, precomputed once per
topology.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.engine import EventLoop, SimulationError

__all__ = [
    "Packet",
    "Link",
    "NetworkInterface",
    "Host",
    "Switch",
    "Network",
    "CpuModel",
    "DeliveryQueue",
]

#: Default per-message protocol framing overhead in bytes (headers etc.).
DEFAULT_HEADER_BYTES = 64


#: Cache-miss sentinel (None is a valid cached value: loopback).
_MISSING = object()


@dataclass(slots=True)
class Packet:
    """A message in flight between two hosts."""

    src: str
    dst: str
    payload: Any
    size_bytes: int
    packet_id: int = 0
    sent_at: float = 0.0
    hops: int = 0

    def total_bytes(self) -> int:
        return self.size_bytes + DEFAULT_HEADER_BYTES


@dataclass
class CpuModel:
    """Per-host CPU cost model for message processing.

    ``per_message_s`` dominates for the small 16-byte key-value requests the
    paper uses; ``per_byte_s`` matters for the large merged proposals Canopus
    ships between super-leaves in later rounds.  Sending also consumes CPU
    (serialization, syscalls) at ``send_fraction`` of the receive cost — this
    is what makes a node that broadcasts to everyone (a Zab leader, an EPaxos
    command leader) a bottleneck, as the paper observes.
    """

    per_message_s: float = 4e-6
    per_byte_s: float = 1e-9
    send_fraction: float = 0.5

    def service_time(self, packet: Packet) -> float:
        return self.per_message_s + self.per_byte_s * packet.total_bytes()

    def send_time(self, packet: Packet) -> float:
        return self.send_fraction * self.service_time(packet)


class DeliveryQueue:
    """Coalesces a stream of timed deliveries into one scheduled event.

    Links and host CPU queues hand over work whose completion times are
    (by construction) non-decreasing: link serialization and CPU busy-until
    both only move forward.  Instead of scheduling one event-loop entry per
    packet — which makes the heap grow with the number of in-flight
    messages — the queue keeps at most one outstanding event and, when it
    fires, flushes *every* pending item that is due at that instant.  This
    is the sim-network hot path batching: a burst to one destination costs
    one heap operation, not one per message.

    Items pushed out of order (possible only if a caller violates the
    monotonicity contract) fall back to a dedicated event so delivery
    timing is never wrong, merely unbatched.
    """

    __slots__ = ("loop", "deliver", "priority", "_pending", "_armed", "_flush_cb")

    def __init__(self, loop: EventLoop, deliver: Callable[[Any], None], priority: int) -> None:
        self.loop = loop
        self.deliver = deliver
        self.priority = priority
        self._pending: "deque[Tuple[float, Any]]" = deque()
        self._armed = False
        #: Pre-bound flush callback: arming happens once per burst but the
        #: bound-method allocation was still visible under saturation.
        self._flush_cb = self._flush

    def __len__(self) -> int:
        return len(self._pending)

    def push(self, when: float, item: Any) -> None:
        """Enqueue ``item`` for delivery at absolute time ``when``."""
        pending = self._pending
        if pending and when < pending[-1][0]:
            self.loop.schedule_fast(when, lambda: self.deliver(item), self.priority)
            return
        pending.append((when, item))
        if not self._armed:
            self._armed = True
            self.loop.schedule_fast(when, self._flush_cb, self.priority)

    def _flush(self) -> None:
        self._armed = False
        pending = self._pending
        now = self.loop._now
        deliver = self.deliver
        while pending and pending[0][0] <= now:
            deliver(pending.popleft()[1])
        if pending and not self._armed:
            self._armed = True
            self.loop.schedule_fast(pending[0][0], self._flush_cb, self.priority)


class Link:
    """A unidirectional link with propagation delay, bandwidth and a FIFO queue."""

    def __init__(
        self,
        loop: EventLoop,
        name: str,
        latency_s: float,
        bandwidth_bps: float,
        deliver: Callable[[Packet], None],
    ) -> None:
        self.loop = loop
        self.name = name
        self.latency_s = latency_s
        self.bandwidth_bps = bandwidth_bps
        self._busy_until = 0.0
        self.bytes_sent = 0
        self.packets_sent = 0
        self._arrivals = DeliveryQueue(loop, deliver, priority=5)
        #: When this link is a host's only ingress link, arrivals go to the
        #: host's lazy backlog lane instead of a scheduled delivery queue
        #: (set by :meth:`Network.add_link` via ``Host._attach_ingress``).
        self._lazy_host: Optional["Host"] = None
        #: When this link feeds a lazily-forwarding switch, arrivals go to
        #: the switch's per-ingress-link lane, drained in merged arrival
        #: order by the switch's lookahead drain (see :class:`Switch`).
        self._lazy_lane: Optional["_SwitchLane"] = None

    def transmit(self, packet: Packet, start: Optional[float] = None) -> float:
        """Enqueue ``packet`` and return its arrival time at the far end.

        Serialization begins at ``max(start, busy-until)``; ``start``
        defaults to the current instant.  This is the one statement of the
        link arithmetic.  The two per-packet hot loops inline it with the
        identical expression shapes: :meth:`Network._deliver_fanout` passes
        each packet's CPU-finish instant as ``start`` (sound because a host
        egress link is fed only by its owning host, in CPU-finish order),
        and :meth:`Switch._drain_to` replays it as if run at the packet's
        arrival instant at that switch, which stands in for both ``start``
        and ``now``.
        """
        total_bytes = packet.size_bytes + DEFAULT_HEADER_BYTES
        serialization = total_bytes * 8.0 / self.bandwidth_bps
        busy = self._busy_until
        now = self.loop._now
        if start is None:
            start = now
        if busy > start:
            start = busy
        finish = start + serialization
        self._busy_until = finish
        arrival = finish + self.latency_s
        self.bytes_sent += total_bytes
        self.packets_sent += 1
        host = self._lazy_host
        if host is not None:
            host._ingress_push(arrival, packet)
        else:
            lane = self._lazy_lane
            if lane is not None:
                lane.push(arrival, now, packet)
            else:
                self._arrivals.push(arrival, packet)
        return arrival

    def utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` spent transmitting."""
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, (self.bytes_sent * 8.0 / self.bandwidth_bps) / elapsed_s)


class NetworkInterface:
    """Endpoint attached to a host or switch; owns the outgoing links."""

    def __init__(self, owner: "NetworkElement") -> None:
        self.owner = owner
        self.links: Dict[str, Link] = {}

    def connect(self, link: Link, neighbor: str) -> None:
        self.links[neighbor] = link


class NetworkElement:
    """Base class for hosts and switches."""

    def __init__(self, network: "Network", name: str) -> None:
        self.network = network
        self.name = name
        self.interface = NetworkInterface(self)

    def receive(self, packet: Packet) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class _SwitchLane:
    """One ingress link's arrival backlog at a switch.

    ``q`` holds ``(arrival, p_ref, packet)`` with arrivals non-decreasing
    (the feeding link is FIFO and feeds it in modelled-forward order).
    ``p_ref`` is the modelled instant the packet was put on the feeding
    link — ``now`` at an injection, the forward instant at a switch drain.
    It is kept because it is an input to modelled behaviour, the tie rank
    below; nothing else reads it.

    ``(arm_at, arm_tick)`` rank the lane's head group (its run of equal
    arrivals) among equal-arrival groups of the switch's other lanes, by
    the rule per-arrival delivery events obey: a link's flush for a group
    is armed when the group's first packet is put on the link if the link
    had nothing in flight, else when the previous group is delivered, and
    flushes due at one instant fire in arming order.  ``arm_at`` is that
    arming instant and ``arm_tick`` a per-switch monotone tick that orders
    armings made at the same instant.  Merging lanes by ``(arrival, arm_at,
    arm_tick)`` decides which of two equal-arrival packets from different
    ingress links takes a shared egress link first, so every downstream
    timestamp under symmetric broadcast collisions depends on it (the
    eager path reaches the same order through the engine's ``seq``).
    """

    __slots__ = ("owner", "q", "arm_at", "arm_tick", "lat", "src")

    def __init__(self, owner: "Switch", lat: float, src: "NetworkElement") -> None:
        self.owner = owner
        self.q: "deque[Tuple[float, float, Packet]]" = deque()
        self.arm_at = float("-inf")
        self.arm_tick = 0
        #: Feeding link's latency and source element: a drain may only
        #: forward up to ``min over lanes of (lat - source's drain slack)``
        #: past its own instant, because a lazily-draining source can push
        #: an item up to its grid period after the item's modelled forward
        #: time (see Switch._margin).
        self.lat = lat
        self.src = src

    def push(self, arrival: float, p_ref: float, packet: Packet) -> None:
        q = self.q
        owner = self.owner
        if q:
            if arrival < q[-1][0]:
                # FIFO feeders cannot produce this; keep an unbatched
                # fallback mirroring DeliveryQueue's out-of-order contract.
                owner._loop.schedule_fast(arrival, lambda: owner.receive(packet), 5)
                return
            q.append((arrival, p_ref, packet))
        else:
            if p_ref > self.arm_at:
                # Nothing in flight: this push arms the head group.  When
                # p_ref has not passed the key left behind by the last
                # drained group, the packet was put on the link before that
                # group was delivered, so its group was armed at that
                # delivery: keep the stored key instead.
                self.arm_at = p_ref
                self.arm_tick = owner._arm_tick = owner._arm_tick + 1
            q.append((arrival, p_ref, packet))
            # Lane goes non-empty: enter the switch's persistent merge
            # index.  The entry mirrors (head arrival, arm_at, arm_tick)
            # exactly until _drain_to re-keys it at a group boundary or
            # pops it dry — FIFO appends never change the head, and the
            # arm fields only move on this empty-queue branch.
            heappush(owner._index, (arrival, self.arm_at, self.arm_tick, self))
        # Arm the drain on the switch's time grid: a packet may wait up to
        # one grid period (= min egress latency) because its downstream
        # arrival is at least that far away, and grid alignment means a
        # burst of head-improving pushes arms one drain, not one each.
        # An armed drain at or before ``arrival`` always beats the next
        # grid point after it (g > arrival >= at), so the grid math is
        # skipped entirely in that (common) case.
        at = owner._drain_at
        if at is None or at > arrival:
            g = (int(arrival * owner._grid_inv) + 1) * owner._grid
            if at is None or g < at:
                owner._drain_at = g
                owner._loop.schedule_fast(g, owner._drain_cb, 5)


class Switch(NetworkElement):
    """A store-and-forward switch with negligible internal processing delay.

    The switch forwards along the precomputed shortest path.  Switch
    forwarding delay is folded into link latencies, which matches how the
    paper reports topology latencies (host-to-host RTTs).

    Switches deliver lazily: each ingress link appends arrivals to a
    :class:`_SwitchLane`, and a single *drain* event forwards the whole
    merged backlog whose arrival lies within the switch's lookahead
    window (:meth:`_margin`).  Any arrival pushed by a later event is
    strictly beyond that window — a packet transmitted at time ``T``
    arrives after ``T + serialization + latency`` — so the merged
    arrival order the drain forwards in is exactly the order per-arrival
    delivery events produce, and each hop is charged the arithmetic of
    :meth:`Link.transmit`.  A switch with a zero-latency link has no such
    window and keeps the eager per-arrival path (:meth:`receive`).
    """

    def __init__(self, network: "Network", name: str) -> None:
        super().__init__(network, name)
        self._loop = network.loop
        self.packets_forwarded = 0
        #: Destination -> egress link, resolved once per destination (the
        #: store-and-forward hot path; cleared on route rebuilds).
        self._fwd: Dict[str, Link] = {}
        #: Per-ingress-link backlog lanes.
        self._lanes: List[_SwitchLane] = []
        #: Earliest armed drain event time (None when nothing is armed).
        self._drain_at: Optional[float] = None
        #: Monotone tick ordering head-group armings made at one instant
        #: (see :class:`_SwitchLane`).
        self._arm_tick = 0
        #: Persistent lane index: a heap holding exactly one
        #: ``(head arrival, arm_at, arm_tick, lane)`` entry per non-empty
        #: lane.  Maintained incrementally — O(log L) heappush when a lane
        #: goes non-empty (:meth:`_SwitchLane.push`), O(log L) re-key /
        #: pop at group boundaries in :meth:`_drain_to` — so a drain walks
        #: the merged order directly instead of heapifying all lane heads
        #: from scratch every grid period.  ``arm_tick`` is unique per
        #: switch, so entries totally order before ever comparing lanes.
        self._index: List[Tuple[float, float, int, _SwitchLane]] = []
        #: Pre-bound drain callback (one bound-method allocation total,
        #: not one per grid arming).
        self._drain_cb = self._drain
        #: Drain grid period: the minimum egress latency.  A laned packet
        #: may be forwarded up to one period after its arrival here without
        #: any downstream instant observing the delay.
        self._grid = float("inf")
        self._grid_inv = 0.0
        #: Cleared when a zero-latency link makes lazy forwarding unsound.
        self._lazy_ok = True
        #: Cached merge-safe window (see :meth:`_margin`).
        self._margin_cache = float("inf")
        self._margin_gen = -1

    def _attach_lane(self, link: Link, src: "NetworkElement") -> None:
        if link.latency_s <= 0.0 or not self._lazy_ok:
            self._demote_lanes()
            return
        lane = _SwitchLane(self, link.latency_s, src)
        link._lazy_lane = lane
        self._lanes.append(lane)

    def _margin(self) -> float:
        """Merge-safe forwarding window past a drain instant.

        Every arrival not yet pushed into a lane at instant ``g`` is
        strictly later than ``g + margin``: a real event at ``u >= g``
        pushes arrivals beyond ``u + lat``, while a lazy source switch's
        drain at ``u`` may forward items whose modelled forward time is up
        to its grid period old, pushing arrivals beyond ``u + lat - grid``.
        """
        gen = self.network._topo_gen
        if gen != self._margin_gen:
            margin = float("inf")
            for lane in self._lanes:
                src = lane.src
                slack = src._grid if isinstance(src, Switch) and src._lanes else 0.0
                m = lane.lat - slack
                if m < margin:
                    margin = m
            self._margin_cache = margin
            self._margin_gen = gen
        return self._margin_cache

    def _note_egress(self, latency_s: float) -> None:
        """Record an outgoing link's latency; it bounds the drain grid."""
        if latency_s <= 0.0:
            self._demote_lanes()
        elif self._lazy_ok and latency_s < self._grid:
            self._grid = latency_s
            self._grid_inv = 1.0 / latency_s

    def _demote_lanes(self) -> None:
        """Fall back to eager per-arrival delivery for every ingress link (a
        zero-latency link leaves no slack for batched forwarding).

        A construction-time decision: the links of a switch are wired
        before traffic flows, so a lane holding backlog here is a bug in
        the caller, not a case to replay.
        """
        if self._index:
            raise SimulationError(
                f"cannot demote switch {self.name!r}: its lanes hold backlog "
                "(zero-latency links must be added before traffic flows)"
            )
        self._lazy_ok = False
        self.network._topo_gen += 1
        self._drain_at = None
        for link in self.network.links.values():
            lane = link._lazy_lane
            if lane is not None and lane.owner is self:
                link._lazy_lane = None
        self._lanes.clear()
        self._grid = 0.0

    def _drain(self) -> None:
        """Forward every laned arrival inside the lookahead window (runs
        as an ordinary event on the switch's drain grid)."""
        loop = self._loop
        now = loop._now
        if self._drain_at != now:
            return  # superseded by a re-arm at an earlier grid point
        self._drain_at = None
        bound = now + self._margin()
        deadline = loop._deadline
        if now <= deadline < bound:
            # Never forward past the active run_until window: a forward
            # bumps link and switch counters (and, through a host lane, CPU
            # time) that the caller may read at the deadline.
            bound = deadline
        nxt = self._drain_to(bound)
        if nxt is not None:
            g = (int(nxt * self._grid_inv) + 1) * self._grid
            at = self._drain_at
            if at is None or g < at:
                self._drain_at = g
                loop.schedule_fast(g, self._drain_cb, 5)

    def _drain_to(self, bound: float) -> Optional[float]:
        """Forward every laned arrival at or before ``bound`` in merged
        order.  Returns the merged head arrival left pending, if any.

        Walks :attr:`_index` — the persistent heap of per-lane head keys —
        directly: a group boundary re-keys the root in place, a dry lane
        pops it, and everything still pending survives to the next drain
        untouched.  The merge keys are immutable while a head group is
        pending (pushes only append behind it), so the pop sequence is
        identical to heapifying every lane head from scratch.
        """
        heads = self._index
        if not heads:
            return None
        loop = self._loop
        fwd = self._fwd
        hdr = DEFAULT_HEADER_BYTES
        count = 0
        while heads:
            head = heads[0]
            arrival = head[0]
            if arrival > bound:
                break
            lane = head[3]
            q = lane.q
            packet = q.popleft()[2]
            count += 1
            packet.hops += 1
            dst = packet.dst
            try:
                link = fwd[dst]
            except KeyError:
                link = self.interface.links[self.network.next_hop(self.name, dst)]
                fwd[dst] = link
            # Link.transmit, inlined (the drain is the per-packet hot
            # loop): identical expression shapes, replayed as if run at
            # ``arrival`` (start = now = arrival).
            total_bytes = packet.size_bytes + hdr
            serialization = total_bytes * 8.0 / link.bandwidth_bps
            busy = link._busy_until
            start = arrival if arrival > busy else busy
            finish = start + serialization
            link._busy_until = finish
            down_arrival = finish + link.latency_s
            link.bytes_sent += total_bytes
            link.packets_sent += 1
            sink = link._lazy_host
            if sink is not None:
                # Host._ingress_push, non-empty in-order fast case inlined.
                hq = sink._in_q
                if hq and down_arrival >= hq[-1][0]:
                    hq.append((down_arrival, packet))
                else:
                    sink._ingress_push(down_arrival, packet)
            else:
                sink = link._lazy_lane
                if sink is not None:
                    # _SwitchLane.push, non-empty in-order fast case
                    # inlined (the downstream lane's merge-index entry
                    # only changes when its queue goes non-empty).
                    lq = sink.q
                    if lq and down_arrival >= lq[-1][0]:
                        lq.append((down_arrival, arrival, packet))
                        sw = sink.owner
                        at = sw._drain_at
                        if at is None or at > down_arrival:
                            g = (int(down_arrival * sw._grid_inv) + 1) * sw._grid
                            if at is None or g < at:
                                sw._drain_at = g
                                loop.schedule_fast(g, sw._drain_cb, 5)
                    else:
                        sink.push(down_arrival, arrival, packet)
                else:
                    link._arrivals.push(down_arrival, packet)
            if q:
                head2 = q[0]
                nxt_arrival = head2[0]
                if nxt_arrival != arrival:
                    # Group boundary: the next group is armed at this
                    # group's delivery instant when its first packet was
                    # already on the link by then, else at the instant that
                    # packet was put on the link.  (Same-group
                    # continuations leave the root's merge key unchanged —
                    # arm_tick is unique per switch, so the min is strict.)
                    nxt_p_ref = head2[1]
                    lane.arm_at = arm = arrival if nxt_p_ref <= arrival else nxt_p_ref
                    lane.arm_tick = tick = self._arm_tick = self._arm_tick + 1
                    heapreplace(heads, (nxt_arrival, arm, tick, lane))
            else:
                # Lane drained dry: pre-assign the chain-continuation key.
                # If a deferred upstream push later lands with p_ref at or
                # before this delivery instant, its group was armed right
                # here, with this merge rank (see push()).
                lane.arm_at = arrival
                lane.arm_tick = self._arm_tick = self._arm_tick + 1
                heappop(heads)
        self.packets_forwarded += count
        return heads[0][0] if heads else None

    def receive(self, packet: Packet) -> None:
        """Eager path: forward one packet at its arrival event."""
        self.packets_forwarded += 1
        packet.hops += 1
        dst = packet.dst
        link = self._fwd.get(dst)
        if link is None:
            link = self.interface.links[self.network.next_hop(self.name, dst)]
            self._fwd[dst] = link
        link.transmit(packet)


class _RxQueue(DeliveryQueue):
    """The host CPU dispatch queue, pull-aware.

    Before dispatching, the owning host charges any ingress backlog due at
    or before the flush instant (arrivals rank at priority 5, this queue at
    priority 8, so an arrival due now is charged before this flush
    dispatches).  After draining, if the CPU went idle while arrivals are
    still pending in the lane, a wake-up is armed at the head arrival so
    the backlog is charged from exactly that instant.

    :meth:`_flush` is the one function every delivered packet leaves the
    network through (the eager fallback reaches it too, via
    :meth:`Host.receive`); :meth:`Network._deliver_fanout` is the one it
    enters by.
    """

    __slots__ = ("host",)

    def __init__(self, host: "Host") -> None:
        super().__init__(host.network.loop, host._dispatch, priority=8)
        self.host = host

    def _flush(self) -> None:
        host = self.host
        loop = self.loop
        now = loop._now
        if host._in_q:
            host._pull(now)
        self._armed = False
        pending = self._pending
        # Host._dispatch inlined: this is the per-delivered-packet loop, and
        # the extra frame per packet was measurable.  Failure state and the
        # handler are re-read per packet (a callback can fail the host or
        # swap the handler mid-flush), exactly as the indirect call did; the
        # receive counters accumulate in locals and settle once per flush.
        hdr = DEFAULT_HEADER_BYTES
        n_received = 0
        b_received = 0
        while pending and pending[0][0] <= now:
            packet = pending.popleft()[1]
            if not host.failed:
                n_received += 1
                b_received += packet.size_bytes + hdr
                handler = host._handler
                if handler is not None:
                    obs = host._obs
                    if obs is None:
                        handler(packet.src, packet.payload)
                    else:
                        obs.deliver(host.name, packet, handler)
        if n_received:
            host.messages_received += n_received
            host.bytes_received += b_received
        if pending:
            if not self._armed:
                self._armed = True
                loop.schedule_fast(pending[0][0], self._flush_cb, 8)
        elif host._in_q:
            host._arm_wake(host._in_q[0][0])


class Host(NetworkElement):
    """A simulated machine.

    Incoming packets are serviced serially through a single CPU queue and
    then handed to the registered message handler.  Outgoing messages go
    through :meth:`send` / :meth:`multicast`, which charge this host's CPU
    and hand the packets to the network routing table when the CPU gets to
    them.  Sends issued within one event turn are coalesced into a single
    transmit-queue entry (their CPU-finish times are all determined
    synchronously, so the schedule is precomputable), which keeps the event
    heap small under fan-out bursts.
    """

    def __init__(self, network: "Network", name: str, cpu: Optional[CpuModel] = None) -> None:
        super().__init__(network, name)
        self.cpu = cpu or CpuModel()
        self._loop = network.loop
        self._handler: Optional[Callable[[str, Any], None]] = None
        self._cpu_busy_until = 0.0
        self._cpu_busy_s = 0.0
        self.messages_received = 0
        self.messages_sent = 0
        self.bytes_received = 0
        self.rack: Optional[str] = None
        self.datacenter: Optional[str] = None
        self.failed = False
        #: Observability hook — set alongside :attr:`Network._obs` when a
        #: tracer is attached; the delivery path costs one load when off.
        self._obs = None
        loop = network.loop
        self._rx_queue = _RxQueue(self)
        #: Transmit queue: one entry per same-turn group of sends, each a
        #: list of ``(dst, payload, size_bytes, cpu_finish)`` flushed at the
        #: earliest CPU-finish instant through :meth:`Network._deliver_fanout`.
        self._tx_queue = DeliveryQueue(loop, self._inject, priority=9)
        #: Open same-turn group and the ``processed_events`` count it was
        #: opened at: any event run in between moves the count, so a stale
        #: group (which may already have flushed) is never extended.
        self._open_tx: Optional[List[Tuple[str, Any, int, float]]] = None
        self._open_tx_events = -1
        # Lazy ingress backlog (single-ingress-link hosts only) ----------
        #: Links delivering to this host; with exactly one, arrivals are
        #: delivered lazily through the backlog lane below.
        self._ingress_links: List[Link] = []
        #: Pending ``(arrival, packet)`` pairs, arrivals non-decreasing.
        self._in_q: "deque[Tuple[float, Packet]]" = deque()
        #: Earliest wake-up currently scheduled (None when none).
        self._wake_at: Optional[float] = None
        #: Pre-bound wake callback (one bound-method allocation total).
        self._wake_cb = self._wake

    # ------------------------------------------------------------------
    def set_handler(self, handler: Callable[[str, Any], None]) -> None:
        """Register the callback invoked as ``handler(sender, payload)``."""
        self._handler = handler

    # ------------------------------------------------------------------
    # Lazy ingress backlog
    #
    # A host with a single incoming link (every host in the tree
    # topologies) does not schedule one delivery event per distinct
    # arrival time.  Links append (arrival, packet) to the host's lane at
    # transmit time; each packet's CPU charge is computed — with the
    # arithmetic and order of :meth:`receive` run at its arrival instant —
    # the first time the host's CPU state is observed at or after that
    # instant (a send, a dispatch, a utilization probe, fail/recover, or
    # the armed wake-up when the CPU would otherwise sit idle).  See
    # ARCHITECTURE.md, "Backlog delivery".
    # ------------------------------------------------------------------
    def _attach_ingress(self, link: Link) -> None:
        """Register an incoming link; demote to scheduled delivery when
        the host stops being single-ingress (lazy replay needs one lane)."""
        self._ingress_links.append(link)
        if len(self._ingress_links) == 1:
            link._lazy_host = self
        else:
            for attached in self._ingress_links:
                attached._lazy_host = None

    def _ingress_push(self, when: float, packet: Packet) -> None:
        """Append an arrival to the backlog lane (called at transmit time)."""
        q = self._in_q
        if not q:
            q.append((when, packet))
            if not self._rx_queue._pending:
                self._arm_wake(when)
        elif when < q[-1][0]:
            # Out-of-order arrival: impossible for a FIFO link, but keep
            # the DeliveryQueue fallback contract (dedicated event).
            self._loop.schedule_fast(when, lambda: self.receive(packet), 5)
        else:
            q.append((when, packet))

    def _arm_wake(self, when: float) -> None:
        """Schedule a wake-up so an idle CPU charges its backlog from the
        head arrival instant on (a busy one gets there by its own flush)."""
        wake_at = self._wake_at
        if wake_at is None or when < wake_at:
            self._wake_at = when
            self._loop.schedule_fast(when, self._wake_cb, 5)

    def _wake(self) -> None:
        self._wake_at = None
        q = self._in_q
        if q:
            self._pull(self._loop._now)
            if q and not self._rx_queue._pending:
                self._arm_wake(q[0][0])

    def _pull(self, bound: float) -> None:
        """Charge the CPU for every laned arrival at or before ``bound``,
        in arrival order, with the ``start = max(arrival, busy)``
        arithmetic of :meth:`receive` run at each arrival instant."""
        q = self._in_q
        if not q or q[0][0] > bound:
            return
        rxq = self._rx_queue
        pending = rxq._pending
        cpu = self.cpu
        per_message = cpu.per_message_s
        per_byte = cpu.per_byte_s
        failed = self.failed
        busy = self._cpu_busy_until
        busy_s = self._cpu_busy_s
        while q and q[0][0] <= bound:
            when, packet = q.popleft()
            if not failed:
                cost = per_message + per_byte * (packet.size_bytes + DEFAULT_HEADER_BYTES)
                start = when if when > busy else busy
                finish = start + cost
                busy = finish
                busy_s += cost
                # CPU-finish times are non-decreasing (one busy chain),
                # so this is rx_queue.push without the out-of-order
                # check; arming is settled once, after the batch.
                pending.append((finish, packet))
            # else: dropped, exactly as receive() would at arrival time
        self._cpu_busy_until = busy
        self._cpu_busy_s = busy_s
        if pending and not rxq._armed:
            rxq._armed = True
            self._loop.schedule_fast(pending[0][0], rxq._flush_cb, 8)

    def send(self, dst: str, payload: Any, size_bytes: int) -> None:
        """Send ``payload`` to host ``dst``.

        The send is charged to this host's CPU queue first (serialization /
        syscall cost), then handed to the network when the CPU gets to it.
        """
        if self.failed:
            return
        loop = self._loop
        if self._in_q:
            self._pull(loop._now)
        self.messages_sent += 1
        cpu = self.cpu
        # Inlined CpuModel.send_time with the identical expression shape
        # (same parenthesization => bit-identical float results).
        cost = cpu.send_fraction * (
            cpu.per_message_s + cpu.per_byte_s * (size_bytes + DEFAULT_HEADER_BYTES)
        )
        now = loop._now
        busy = self._cpu_busy_until
        start = now if now > busy else busy
        finish = start + cost
        self._cpu_busy_until = finish
        self._cpu_busy_s += cost
        events = loop._processed
        group = self._open_tx
        if group is not None and self._open_tx_events == events:
            group.append((dst, payload, size_bytes, finish))
        else:
            self._open_tx = group = [(dst, payload, size_bytes, finish)]
            self._open_tx_events = events
            self._tx_queue.push(finish, group)

    def multicast(self, dsts: Sequence[str], payload: Any, size_bytes: int) -> None:
        """Send one logical ``payload`` to every host in ``dsts``.

        Each destination is charged the same CPU send cost, link
        serialization and receive cost as ``len(dsts)`` sequential
        :meth:`send` calls — modelled timings are identical — but the send
        cost is computed once, the whole group rides a single
        transmit-queue entry, and routing is resolved through the network's
        per-pair first-hop cache.  Sole granularity exception: destination
        crash-stop state is sampled when the group flushes, not at each
        packet's logical injection instant (see ARCHITECTURE.md, "Transport
        / broadcast fast path").
        """
        if self.failed or not dsts:
            return
        loop = self._loop
        if self._in_q:
            self._pull(loop._now)
        self.messages_sent += len(dsts)
        cpu = self.cpu
        cost = cpu.send_fraction * (
            cpu.per_message_s + cpu.per_byte_s * (size_bytes + DEFAULT_HEADER_BYTES)
        )
        now = loop._now
        busy = self._cpu_busy_until
        start = now if now > busy else busy
        events = loop._processed
        group = self._open_tx
        fresh = group is None or self._open_tx_events != events
        if fresh:
            self._open_tx = group = []
            self._open_tx_events = events
        first = start + cost
        for dst in dsts:
            start += cost
            group.append((dst, payload, size_bytes, start))
        self._cpu_busy_until = start
        self._cpu_busy_s += cost * len(dsts)
        if fresh:
            self._tx_queue.push(first, group)

    def _inject(self, group: List[Tuple[str, Any, int, float]]) -> None:
        self.network._deliver_fanout(self.name, group)

    # ------------------------------------------------------------------
    def receive(self, packet: Packet) -> None:
        if self._in_q:
            self._pull(self._loop._now)
        if self.failed:
            return
        cpu = self.cpu
        cost = cpu.per_message_s + cpu.per_byte_s * (packet.size_bytes + DEFAULT_HEADER_BYTES)
        now = self._loop._now
        busy = self._cpu_busy_until
        start = now if now > busy else busy
        finish = start + cost
        self._cpu_busy_until = finish
        self._cpu_busy_s += cost
        self._rx_queue.push(finish, packet)

    def _dispatch(self, packet: Packet) -> None:
        if self.failed:
            return
        self.messages_received += 1
        self.bytes_received += packet.size_bytes + DEFAULT_HEADER_BYTES
        handler = self._handler
        if handler is not None:
            obs = self._obs
            if obs is None:
                handler(packet.src, packet.payload)
            else:
                obs.deliver(self.name, packet, handler)

    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash-stop the host: drop all future traffic and processing."""
        if self._in_q:
            self._pull(self.network.loop._now)  # charge pre-crash arrivals
        self.failed = True

    def recover(self) -> None:
        """Bring a crashed host back (protocol-level rejoin is separate)."""
        if self._in_q:
            self._pull(self.network.loop._now)  # drop in-crash arrivals
        self.failed = False

    def cpu_utilization(self, elapsed_s: float) -> float:
        """Fraction of ``elapsed_s`` the CPU spent servicing messages.

        Accumulated busy seconds, not the ``_cpu_busy_until`` timestamp:
        the timestamp equals elapsed time plus queue backlog whenever the
        CPU was ever busy near the end of the window, which over-reported
        utilization for any host with idle gaps.
        """
        if self._in_q:
            self._pull(self.network.loop._now)
        if elapsed_s <= 0:
            return 0.0
        return min(1.0, self._cpu_busy_s / elapsed_s)


class Network:
    """The set of hosts, switches and links plus routing.

    Links are added with :meth:`add_link` (which creates one unidirectional
    :class:`Link` per direction).  Routing tables are computed lazily with
    BFS weighted by hop count; topologies built by
    :mod:`repro.sim.topology` are trees so shortest paths are unique.
    """

    def __init__(self, loop: EventLoop) -> None:
        self.loop = loop
        self.hosts: Dict[str, Host] = {}
        self.switches: Dict[str, Switch] = {}
        self.links: Dict[Tuple[str, str], Link] = {}
        self._adjacency: Dict[str, List[str]] = {}
        self._routes: Dict[str, Dict[str, str]] = {}
        self._packet_ids = itertools.count(1)
        #: Observability hook (:class:`repro.obs.Tracer`) — ``None`` when
        #: tracing is off; the egress path then costs one attribute load.
        self._obs = None
        self._routes_dirty = True
        self.local_loopback_latency_s = 5e-6
        self.dropped_packets = 0
        self._loopback_queues: Dict[str, DeliveryQueue] = {}
        #: Per-pair first-hop cache: src -> {dst -> first-hop Link (None =
        #: loopback)}.  Nested by source so the per-packet fan-out loop
        #: looks up a plain string key instead of allocating a (src, dst)
        #: tuple per item.  Bounded by the number of host pairs actually
        #: communicating; invalidated with the routing table.
        self._first_hops: Dict[str, Dict[str, Optional[Link]]] = {}
        #: Bumped on every link-topology change; invalidates drain margins.
        self._topo_gen = 0
        # Backlog lanes are charged lazily; settle them whenever a run
        # window closes so the counters a caller reads there (link packets
        # and bytes, switch forwards, CPU busy time) cover the whole window.
        loop.add_quiesce_hook(self._settle_ingress)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_host(self, name: str, cpu: Optional[CpuModel] = None) -> Host:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate network element {name!r}")
        host = Host(self, name, cpu=cpu)
        self.hosts[name] = host
        self._adjacency.setdefault(name, [])
        self._routes_dirty = True
        return host

    def add_switch(self, name: str) -> Switch:
        if name in self.hosts or name in self.switches:
            raise SimulationError(f"duplicate network element {name!r}")
        switch = Switch(self, name)
        self.switches[name] = switch
        self._adjacency.setdefault(name, [])
        self._routes_dirty = True
        return switch

    def element(self, name: str) -> NetworkElement:
        if name in self.hosts:
            return self.hosts[name]
        if name in self.switches:
            return self.switches[name]
        raise KeyError(name)

    def add_link(self, a: str, b: str, latency_s: float, bandwidth_bps: float) -> None:
        """Create a bidirectional link between elements ``a`` and ``b``."""
        element_a = self.element(a)
        element_b = self.element(b)
        forward = Link(self.loop, f"{a}->{b}", latency_s, bandwidth_bps, element_b.receive)
        backward = Link(self.loop, f"{b}->{a}", latency_s, bandwidth_bps, element_a.receive)
        self.links[(a, b)] = forward
        self.links[(b, a)] = backward
        element_a.interface.connect(forward, b)
        element_b.interface.connect(backward, a)
        if isinstance(element_a, Switch):
            element_a._note_egress(latency_s)
        if isinstance(element_b, Switch):
            element_b._note_egress(latency_s)
        if isinstance(element_b, Host):
            element_b._attach_ingress(forward)
        else:
            element_b._attach_lane(forward, element_a)
        if isinstance(element_a, Host):
            element_a._attach_ingress(backward)
        else:
            element_a._attach_lane(backward, element_b)
        self._adjacency[a].append(b)
        self._adjacency[b].append(a)
        self._topo_gen += 1
        self._routes_dirty = True

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _rebuild_routes(self) -> None:
        self._routes = {}
        for source in self._adjacency:
            next_hop: Dict[str, str] = {}
            visited = {source}
            queue = deque([(neighbor, neighbor) for neighbor in self._adjacency[source]])
            for neighbor, _ in queue:
                visited.add(neighbor)
            while queue:
                node, first = queue.popleft()
                next_hop[node] = first
                for neighbor in self._adjacency[node]:
                    if neighbor not in visited:
                        visited.add(neighbor)
                        queue.append((neighbor, first))
            self._routes[source] = next_hop
        self._routes_dirty = False
        self._first_hops.clear()
        for switch in self.switches.values():
            switch._fwd.clear()

    def _settle_ingress(self) -> None:
        """Quiesce hook: bring every lazy lane up to the current instant.

        Grid-armed switch drains may still be pending for arrivals already
        due, so force-forward those first — repeatedly, because one
        switch's forwards can land in another's lanes — then charge every
        due host backlog.
        """
        now = self.loop._now
        switches = [s for s in self.switches.values() if s._lanes]
        changed = True
        while changed:
            changed = False
            for switch in switches:
                index = switch._index
                if index and index[0][0] <= now:
                    switch._drain_to(now)
                    changed = True
        for host in self.hosts.values():
            if host._in_q:
                host._pull(now)

    def next_hop(self, src: str, dst: str) -> str:
        if self._routes_dirty:
            self._rebuild_routes()
        try:
            return self._routes[src][dst]
        except KeyError as exc:
            raise SimulationError(f"no route from {src} to {dst}") from exc

    def path(self, src: str, dst: str) -> List[str]:
        """Return the full element path from ``src`` to ``dst`` (exclusive of src)."""
        if self._routes_dirty:
            self._rebuild_routes()
        path = []
        current = src
        guard = 0
        while current != dst:
            current = self._routes[current][dst]
            path.append(current)
            guard += 1
            if guard > len(self._adjacency) + 1:
                raise SimulationError(f"routing loop from {src} to {dst}")
        return path

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------
    def send(self, src: str, dst: str, payload: Any, size_bytes: int) -> None:
        """Inject a packet from host ``src`` to host ``dst`` now, with no
        CPU charge at the sender (:meth:`Host.send` charges it first).

        A one-destination fan-out: every injection goes through
        :meth:`_deliver_fanout` so drop accounting, loopback handling and
        routing can never drift apart.
        """
        self._deliver_fanout(src, ((dst, payload, size_bytes, self.loop._now),))

    def _loopback_queue(self, dst: str) -> DeliveryQueue:
        queue = self._loopback_queues.get(dst)
        if queue is None:
            queue = self._loopback_queues[dst] = DeliveryQueue(
                self.loop, self.hosts[dst].receive, priority=5
            )
        return queue

    def _first_hop(self, src: str, dst: str) -> Optional[Link]:
        """Cached first-hop egress link for ``src -> dst`` (None = loopback)."""
        by_dst = self._first_hops.get(src)
        if by_dst is None:
            by_dst = self._first_hops[src] = {}
        link = by_dst.get(dst, _MISSING)
        if link is _MISSING:
            if dst not in self.hosts:
                raise SimulationError(f"send requires host endpoints ({src} -> {dst})")
            if dst == src:
                link = None
            else:
                link = self.hosts[src].interface.links[self.next_hop(src, dst)]
            by_dst[dst] = link
        return link

    def _deliver_fanout(self, src: str, items: Sequence[Tuple[str, Any, int, float]]) -> None:
        """Hand a flushed transmit group to first-hop links in one pass.

        The one function every packet enters the network through
        (:meth:`_RxQueue._flush` is the one it leaves by).  Each item is
        ``(dst, payload, size_bytes, start)`` where ``start`` is the
        CPU-finish instant that destination's packet would have been
        injected at by a dedicated event; it is the ``start`` of
        :meth:`Link.transmit` (or added to the loopback latency), so the
        per-destination schedule is bit-identical to sequential sends.
        """
        if src not in self.hosts:
            raise SimulationError(f"send requires host endpoints ({src} -> ...)")
        if self._routes_dirty:
            self._rebuild_routes()
        hosts = self.hosts
        first_hop = self._first_hop
        first_hops = self._first_hops.get(src)
        if first_hops is None:
            first_hops = self._first_hops[src] = {}
        packet_ids = self._packet_ids
        hdr = DEFAULT_HEADER_BYTES
        obs = self._obs
        loop = self.loop
        now = loop._now
        # A fan-out group from one host rides one egress link for every
        # non-loopback destination (tree routing), so the lazy-sink
        # resolution is cached across consecutive same-link items.
        last_link = None
        sink_host: Optional[Host] = None
        sink_lane: Optional[_SwitchLane] = None
        for dst, payload, size_bytes, when in items:
            try:
                link = first_hops[dst]
            except KeyError:
                link = first_hop(src, dst)
            if hosts[dst].failed:
                self.dropped_packets += 1
                continue
            packet = Packet(src, dst, payload, size_bytes, next(packet_ids), when)
            if obs is not None:
                obs.packet_sent(packet)
            if link is None:
                self._loopback_queue(dst).push(when + self.local_loopback_latency_s, packet)
                continue
            # Link.transmit(packet, start=when), inlined (this is the
            # per-packet injection hot loop): identical expression shapes.
            total_bytes = size_bytes + hdr
            serialization = total_bytes * 8.0 / link.bandwidth_bps
            busy = link._busy_until
            start = when if when > busy else busy
            finish = start + serialization
            link._busy_until = finish
            arrival = finish + link.latency_s
            link.bytes_sent += total_bytes
            link.packets_sent += 1
            if link is not last_link:
                last_link = link
                sink_host = link._lazy_host
                sink_lane = link._lazy_lane if sink_host is None else None
            if sink_host is not None:
                # Host._ingress_push, non-empty in-order fast case inlined.
                hq = sink_host._in_q
                if hq and arrival >= hq[-1][0]:
                    hq.append((arrival, packet))
                else:
                    sink_host._ingress_push(arrival, packet)
            elif sink_lane is not None:
                # _SwitchLane.push, non-empty in-order fast case inlined.
                lq = sink_lane.q
                if lq and arrival >= lq[-1][0]:
                    lq.append((arrival, now, packet))
                    sw = sink_lane.owner
                    at = sw._drain_at
                    if at is None or at > arrival:
                        g = (int(arrival * sw._grid_inv) + 1) * sw._grid
                        if at is None or g < at:
                            sw._drain_at = g
                            loop.schedule_fast(g, sw._drain_cb, 5)
                else:
                    sink_lane.push(arrival, now, packet)
            else:
                link._arrivals.push(arrival, packet)

    def link(self, a: str, b: str) -> Link:
        return self.links[(a, b)]
