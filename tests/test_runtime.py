"""Tests for the runtime abstraction (sim and asyncio backends)."""

import asyncio
import time

import pytest

from repro.runtime.asyncio_runtime import AsyncioCluster
from repro.runtime.sim_runtime import SimRuntime, estimate_size
from repro.sim.engine import SimulationError, Simulator
from repro.sim.network import Network


def build_sim_runtimes(count=2):
    sim = Simulator(seed=3)
    network = Network(sim.loop)
    network.add_switch("sw")
    runtimes = {}
    names = [f"h{i}" for i in range(count)]
    for name in names:
        network.add_host(name)
        network.add_link(name, "sw", 1e-4, 1e9)
    for name in names:
        runtimes[name] = SimRuntime(sim, network, network.hosts[name])
    return sim, runtimes


class TestSimRuntime:
    def test_send_delivers_to_handler(self):
        sim, runtimes = build_sim_runtimes()
        received = []
        runtimes["h1"].set_handler(lambda s, m: received.append((s, m)))
        runtimes["h0"].send("h1", "ping")
        sim.run()
        assert received == [("h0", "ping")]

    def test_after_schedules_timer(self):
        sim, runtimes = build_sim_runtimes()
        fired = []
        runtimes["h0"].after(0.25, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [pytest.approx(0.25)]

    def test_timer_cancel(self):
        sim, runtimes = build_sim_runtimes()
        fired = []
        timer = runtimes["h0"].after(0.25, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []

    def test_periodic_timer_repeats_until_cancelled(self):
        sim, runtimes = build_sim_runtimes()
        fired = []
        timer = runtimes["h0"].periodic(0.1, lambda: fired.append(sim.now))
        runtimes["h0"].after(0.45, timer.cancel)
        sim.run_until(2.0)
        assert len(fired) == 4

    def test_broadcast_excludes_self(self):
        sim, runtimes = build_sim_runtimes(3)
        received = []
        runtimes["h1"].set_handler(lambda s, m: received.append("h1"))
        runtimes["h2"].set_handler(lambda s, m: received.append("h2"))
        runtimes["h0"].set_handler(lambda s, m: received.append("h0"))
        runtimes["h0"].transport.broadcast(["h0", "h1", "h2"], "msg")
        sim.run()
        assert sorted(received) == ["h1", "h2"]

    def test_a_send_to_an_unknown_host_raises_and_counts_nowhere(self):
        _, runtimes = build_sim_runtimes()
        transport, host = runtimes["h0"].transport, runtimes["h0"].host
        with pytest.raises(SimulationError, match="ghost"):
            transport.send("ghost", "m", 100)
        with pytest.raises(SimulationError, match="ghost"):
            transport.broadcast(["h1", "ghost"], "m", 100)
        assert (transport.messages_sent, transport.bytes_sent) == (0, 0)
        assert transport.messages_sent == host.messages_sent

    def test_transport_and_host_count_the_same_sends(self):
        sim, runtimes = build_sim_runtimes(3)
        transport, host = runtimes["h0"].transport, runtimes["h0"].host
        transport.send("h1", "m", 100)
        transport.broadcast(("h0", "h1", "h2"), "m", 50)
        sim.run()
        assert (transport.messages_sent, transport.bytes_sent) == (3, 200)
        assert host.messages_sent == 3

    def test_rng_is_deterministic_per_node(self):
        _, runtimes_a = build_sim_runtimes()
        _, runtimes_b = build_sim_runtimes()
        assert runtimes_a["h0"].rng.random() == runtimes_b["h0"].rng.random()

    def test_now_tracks_simulated_time(self):
        sim, runtimes = build_sim_runtimes()
        sim.run_until(1.25)
        assert runtimes["h0"].now() == 1.25


class TestEstimateSize:
    def test_uses_wire_size_method(self):
        class Sized:
            def wire_size(self):
                return 123

        assert estimate_size(Sized()) == 123

    def test_bytes_and_strings(self):
        assert estimate_size(b"abcd") == 4
        assert estimate_size("hello") == 5

    def test_fallback_for_plain_objects(self):
        assert estimate_size(object()) == 64


class TestAsyncioCluster:
    def test_delivery_between_nodes(self):
        cluster = AsyncioCluster(default_latency_s=0.0)
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        received = []
        b.set_handler(lambda s, m: received.append((s, m)))
        a.send("b", "hello")
        cluster.run(cluster.settle(timeout_s=2.0))
        cluster.close()
        assert received == [("a", "hello")]

    def test_close_finishes_every_task_of_its_loop(self):
        """A message still in flight when the cluster closes is cancelled,
        not left pending on a closed loop."""
        cluster = AsyncioCluster(default_latency_s=1.0)
        a = cluster.add_node("a")
        cluster.add_node("b")
        a.send("b", "late")
        tasks = asyncio.all_tasks(cluster.loop)
        assert tasks
        cluster.close()
        assert all(task.done() for task in tasks)
        assert cluster.messages_delivered == 0

    def test_settle_raises_when_the_cluster_is_still_busy_at_its_deadline(self):
        cluster = AsyncioCluster(default_latency_s=0.001)
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        # A rally that never ends: each side answers every message it gets.
        a.set_handler(lambda sender, message: a.send("b", message))
        b.set_handler(lambda sender, message: b.send("a", message))
        a.send("b", "ball")
        try:
            with pytest.raises(TimeoutError, match="1 messages in flight"):
                cluster.run(cluster.settle(timeout_s=0.05))
            assert cluster.messages_delivered > 1  # it was busy, not stuck
        finally:
            cluster.close()

    def test_settle_returns_once_an_idle_cluster_stays_quiet(self):
        cluster = AsyncioCluster(default_latency_s=0.0)
        cluster.add_node("a")
        try:
            start = time.monotonic()
            cluster.run(cluster.settle(timeout_s=5.0, quiescent_rounds=3))
            assert time.monotonic() - start < 1.0
        finally:
            cluster.close()

    def test_duplicate_node_rejected(self):
        cluster = AsyncioCluster()
        cluster.add_node("a")
        with pytest.raises(ValueError):
            cluster.add_node("a")
        cluster.close()

    def test_unknown_destination_is_dropped(self):
        cluster = AsyncioCluster(default_latency_s=0.0)
        a = cluster.add_node("a")
        a.send("ghost", "x")
        cluster.run(cluster.settle(timeout_s=1.0))
        cluster.close()
        assert cluster.messages_delivered == 0

    def test_latency_injection_orders_deliveries(self):
        cluster = AsyncioCluster(default_latency_s=0.0)
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        c = cluster.add_node("c")
        cluster.set_latency("a", "b", 0.05)
        cluster.set_latency("a", "c", 0.0)
        received = []
        b.set_handler(lambda s, m: received.append("slow"))
        c.set_handler(lambda s, m: received.append("fast"))
        a.send("b", "x")
        a.send("c", "y")
        cluster.run(cluster.settle(timeout_s=2.0))
        cluster.close()
        assert received == ["fast", "slow"]

    def test_after_timer_fires(self):
        cluster = AsyncioCluster()
        a = cluster.add_node("a")
        fired = []
        a.after(0.01, lambda: fired.append(True))
        cluster.run(asyncio.sleep(0.05))
        cluster.close()
        assert fired == [True]

    def test_multicast_fans_out_concurrently(self):
        """The gather-based fan-out delivers to every destination once.

        Per-destination latencies elapse concurrently: with equal latency
        to ten peers, the whole group arrives in roughly one latency, not
        ten stacked ones (the old sequential fallback still satisfied this
        because each send got its own task; the gather path must too).
        """
        cluster = AsyncioCluster(default_latency_s=0.02)
        a = cluster.add_node("a")
        peers = [f"p{i}" for i in range(10)]
        received = []
        for peer in peers:
            runtime = cluster.add_node(peer)
            runtime.set_handler(lambda s, m, _peer=peer: received.append((_peer, s, m)))
        start = time.monotonic()
        a.multicast(peers, "payload")
        cluster.run(cluster.settle(timeout_s=2.0))
        elapsed = time.monotonic() - start
        cluster.close()
        assert sorted(p for p, _, _ in received) == sorted(peers)
        assert all(s == "a" and m == "payload" for _, s, m in received)
        assert elapsed < 10 * 0.02  # concurrent, not sequential latencies

    def test_multicast_skips_unknown_destinations(self):
        cluster = AsyncioCluster(default_latency_s=0.0)
        a = cluster.add_node("a")
        b = cluster.add_node("b")
        received = []
        b.set_handler(lambda s, m: received.append(m))
        a.multicast(["b", "ghost"], "x")
        cluster.run(cluster.settle(timeout_s=1.0))
        cluster.close()
        assert received == ["x"]
        assert cluster.messages_delivered == 1

    def test_transport_broadcast_routes_through_multicast(self):
        """Protocol-level broadcast uses the concurrent fan-out and counters."""
        cluster = AsyncioCluster(default_latency_s=0.0)
        a = cluster.add_node("a")
        received = []
        for peer in ("b", "c"):
            cluster.add_node(peer).set_handler(lambda s, m, _p=peer: received.append(_p))
        a.transport.broadcast(["a", "b", "c"], "payload", size_bytes=100)
        cluster.run(cluster.settle(timeout_s=1.0))
        cluster.close()
        assert sorted(received) == ["b", "c"]  # self excluded
        assert a.transport.messages_sent == 2
        assert a.transport.bytes_sent == 200
