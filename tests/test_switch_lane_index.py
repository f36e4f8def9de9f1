"""Lane-index-vs-eager differential bar for the switch drain merge.

The persistent lane index (``Switch._index``) must forward laned
arrivals in exactly the merged order the eager reference produces: the
order of per-arrival delivery-queue flushes in
:class:`tests.eager_network.EagerNetwork`.  These tests drive
randomized tree topologies through randomized push/drain interleavings
— ``run_until`` deadline caps included, so drains hit mid-window bounds
and reopened head groups — in both configurations and require
byte-identical delivery traces plus identical link, switch and host CPU
counters at every window edge.  Two random-tree traces and both
switch-drain mixes are also pinned to recorded digests.  What the
engine's own counters report is pinned separately:
``processed_events`` is the number of callbacks run and ``len(loop)``
the number of entries held, whatever delivers the packets.
"""

import hashlib
import random

import pytest

from repro.bench.runner import _drive_switch_drain_mix
from repro.sim.engine import EventLoop
from repro.sim.network import Network
from tests.eager_network import EagerNetwork
from tests.helpers import build_canopus_on_sim, write


def _build_random_tree(net, rng):
    """Random 2-3 rack tree with mixed latencies/bandwidths; returns hosts."""
    racks = rng.randrange(2, 4)
    names = []
    for rack in range(racks):
        net.add_switch(f"tor-{rack}")
        for index in range(rng.randrange(2, 5)):
            name = f"h{rack}-{index}"
            names.append(name)
            net.add_host(name)
            net.add_link(
                name,
                f"tor-{rack}",
                latency_s=rng.choice([2e-6, 5e-6, 11e-6]),
                bandwidth_bps=rng.choice([1e9, 10e9]),
            )
    net.add_switch("spine")
    for rack in range(racks):
        net.add_link(f"tor-{rack}", "spine", latency_s=rng.choice([4e-6, 9e-6]), bandwidth_bps=40e9)
    return names


def _edge(net, loop):
    """Everything a caller can read off the network at a window edge."""
    now = loop.now
    return (
        now,
        [(link.packets_sent, link.bytes_sent) for link in net.links.values()],
        [switch.packets_forwarded for switch in net.switches.values()],
        [(host.messages_received, host.cpu_utilization(now)) for host in net.hosts.values()],
    )


def _drive(net, loop, names, seed):
    """Randomized send/drain interleaving; returns (trace, edge snapshots)."""
    rng = random.Random(seed + 9000)
    trace = []
    for name in names:
        def on_rx(src, payload, me=name):
            trace.append((me, src, payload, loop.now))

        net.element(name).set_handler(on_rx)

    count = len(names)
    edges = []
    for index in range(400):
        src_i = rng.randrange(count)
        dst_i = rng.randrange(count - 1)
        if dst_i >= src_i:
            dst_i += 1
        net.send(names[src_i], names[dst_i], index, 64 + rng.randrange(4) * 700)
        draw = rng.random()
        if draw < 0.20:
            # Tight cap: the window edge lands inside pending backlog, so
            # drains stop at the deadline and re-arm past it.
            loop.run_until(loop.now + rng.random() * 3e-5)
            edges.append(_edge(net, loop))
        elif draw < 0.30:
            loop.run_until(loop.now + rng.random() * 8e-4)
            edges.append(_edge(net, loop))
    loop.run()
    edges.append(_edge(net, loop))
    return trace, edges


def _assert_traces_equivalent(lazy_trace, eager_trace):
    """Byte-identical per-host delivery order and identical timestamps.

    Two rx flushes at *different* hosts due at the same instant are
    independent events whose relative order falls to the engine's seq
    counter — which legitimately differs between lazy and eager
    scheduling.  What the contract pins is every per-host sequence
    (payloads, senders, and delivery times — any lane-merge misorder
    shifts the serialization chain and shows up in the timestamps) and the
    time-sorted global trace.
    """
    assert sorted(lazy_trace, key=lambda e: (e[3], e[0])) == sorted(
        eager_trace, key=lambda e: (e[3], e[0])
    )
    hosts = {entry[0] for entry in lazy_trace}
    for host in hosts:
        lazy_seq = [entry for entry in lazy_trace if entry[0] == host]
        eager_seq = [entry for entry in eager_trace if entry[0] == host]
        assert lazy_seq == eager_seq, host


class TestLaneIndexVsEagerDifferential:
    @pytest.mark.parametrize("seed", [0, 1, 5, 9, 23, 51])
    def test_random_topology_and_interleaving_match(self, seed):
        results = []
        for network_cls in (Network, EagerNetwork):
            loop = EventLoop()
            net = network_cls(loop)
            names = _build_random_tree(net, random.Random(seed))
            results.append(_drive(net, loop, names, seed))
        (lazy_trace, lazy_edges), (eager_trace, eager_edges) = results
        _assert_traces_equivalent(lazy_trace, eager_trace)
        assert lazy_edges == eager_edges

    @pytest.mark.parametrize("skewed", [False, True])
    def test_drain_mix_driver_matches_eager(self, skewed, monkeypatch):
        """Skewed/uniform lane loads deliver in the eager merged order."""
        import repro.sim.network as network_module

        _, lazy_trace = _drive_switch_drain_mix(EventLoop, 3000, 5, skewed)
        # The driver resolves Network at call time from the sim module.
        monkeypatch.setattr(network_module, "Network", EagerNetwork)
        _, eager_trace = _drive_switch_drain_mix(EventLoop, 3000, 5, skewed)
        assert lazy_trace == eager_trace


def _digest(value):
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:8]


class TestRecordedLanePins:
    """Lane delivery traces pinned to values recorded on the calendar-queue
    engine the heap replaced (it ran the same ``(time, priority, seq)``
    order): any change to the engine's order or to the lane merge moves a
    digest."""

    @pytest.mark.parametrize(
        "seed, digest, deliveries, edges, processed, now",
        [
            (3, "ed646f1a", 400, 122, 1020, 0.014748374544172582),
            (17, "315c874c", 400, 118, 1199, 0.018155155889733904),
        ],
    )
    def test_random_tree_trace_matches_the_recorded_pin(
        self, seed, digest, deliveries, edges, processed, now
    ):
        loop = EventLoop()
        net = Network(loop)
        names = _build_random_tree(net, random.Random(seed))
        trace, snapshots = _drive(net, loop, names, seed)
        assert _digest((trace, snapshots)) == digest
        assert (len(trace), len(snapshots)) == (deliveries, edges)
        assert (loop.processed_events, loop.now) == (processed, now)

    @pytest.mark.parametrize(
        "skewed, digest, processed, now",
        [
            (False, "6e412890", 3115, 0.0010524334978921138),
            (True, "b5485500", 3335, 0.0012928349590458886),
        ],
    )
    def test_drain_mix_trace_matches_the_recorded_pin(self, skewed, digest, processed, now):
        loop, trace = _drive_switch_drain_mix(EventLoop, 3000, 5, skewed)
        assert _digest(trace) == digest
        assert len(trace) == 3000
        assert (loop.processed_events, loop.now) == (processed, now)


class _CountingLoop(EventLoop):
    """Counts callbacks invoked and entries pending from the outside."""

    def __init__(self):
        super().__init__()
        self.invoked = 0
        self.fast_pending = 0
        self.events = []

    def schedule_at(self, when, callback, **kwargs):
        def counted():
            self.invoked += 1
            callback()

        event = super().schedule_at(when, counted, **kwargs)
        self.events.append(event)
        return event

    def schedule_fast(self, when, callback, priority=10):
        def counted():
            self.fast_pending -= 1
            self.invoked += 1
            callback()

        super().schedule_fast(when, counted, priority)
        self.fast_pending += 1

    def pending(self):
        # An Event is marked cancelled when it is cancelled *or* consumed.
        return self.fast_pending + sum(1 for event in self.events if not event.cancelled)

    def assert_counters_are_real(self):
        assert self.processed_events == self.invoked
        assert len(self) == self.pending()


class TestEngineCountersAreReal:
    """``processed_events`` / ``len(loop)`` count what the engine ran and
    holds — drains, dispatches and superseded flushes included, nothing
    added for packets that a lane delivered without an event of their own."""

    @pytest.mark.parametrize("skewed", [False, True])
    def test_switch_drain_mix(self, skewed):
        loop, trace = _drive_switch_drain_mix(_CountingLoop, 3000, 5, skewed)
        assert len(trace) == 3000
        loop.assert_counters_are_real()
        assert len(loop) == 0
        # Far fewer events than packet-hops: that is the point of the lanes.
        assert loop.processed_events < 2 * len(trace)

    def test_nine_node_canopus_run(self, monkeypatch):
        # Simulator() resolves EventLoop from its module at construction.
        monkeypatch.setattr("repro.sim.engine.EventLoop", _CountingLoop)
        simulator, _, protocol, replies = build_canopus_on_sim()
        loop = simulator.loop
        for index, node in enumerate(protocol.nodes.values()):
            node.submit(write(f"k{index}", str(index)))
        for deadline in (0.004, 0.0125, 0.05):
            simulator.run_until(deadline)
            loop.assert_counters_are_real()
        assert len(replies) == 9
        assert len(loop) > 0  # heartbeats and cycle timers stay armed
