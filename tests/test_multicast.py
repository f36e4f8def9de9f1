"""Tests for the multicast fast path and its timing-equivalence contract.

The contract (ARCHITECTURE.md "Transport / broadcast fast path"): a
``multicast``/``broadcast`` to N destinations produces *exactly* the same
modelled timings — CPU send charges, link serialization and queuing,
receive times — as N sequential ``send`` calls issued in the same event
turn.  The fast path is allowed to change only how much host-side work
(events, allocations) the simulator performs.
"""

import json
import subprocess
import sys
import textwrap

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.network import CpuModel, DeliveryQueue, Network


def build_two_rack(simulator, cpu=None):
    """Three hosts across two racks: intra-rack, cross-rack and loopback paths."""
    network = Network(simulator.loop)
    for name in ("a", "b", "c", "d"):
        network.add_host(name, cpu=cpu)
    network.add_switch("tor1")
    network.add_switch("tor2")
    network.add_switch("agg")
    network.add_link("a", "tor1", 1e-5, 1e8)
    network.add_link("b", "tor1", 1e-5, 1e8)
    network.add_link("c", "tor2", 2e-5, 1e8)
    network.add_link("d", "tor2", 2e-5, 1e8)
    network.add_link("tor1", "agg", 5e-5, 2e8)
    network.add_link("tor2", "agg", 5e-5, 2e8)
    return network


def record_arrivals(network, hosts):
    arrivals = []
    for name in hosts:
        network.hosts[name].set_handler(
            lambda sender, payload, _n=name: arrivals.append(
                (_n, sender, payload, network.loop.now)
            )
        )
    return arrivals


class TestTimingEquivalence:
    DSTS = ["b", "c", "d", "a", "c"]  # cross/intra-rack, loopback, repeat

    def run_sequential(self):
        simulator = Simulator(seed=3)
        network = build_two_rack(simulator)
        arrivals = record_arrivals(network, "abcd")
        for dst in self.DSTS:
            network.hosts["a"].send(dst, f"m:{dst}", 400)
        simulator.run()
        return arrivals

    def test_multicast_times_equal_sequential_sends(self):
        sequential = self.run_sequential()

        simulator = Simulator(seed=3)
        network = build_two_rack(simulator)
        arrivals = record_arrivals(network, "abcd")
        network.hosts["a"].multicast(self.DSTS, "shared", 400)
        simulator.run()

        assert [(dst, sender, t) for dst, sender, _, t in arrivals] == [
            (dst, sender, t) for dst, sender, _, t in sequential
        ]
        # One shared logical message: every delivery carries the same object.
        payloads = {id(payload) for _, _, payload, _ in arrivals}
        assert len(payloads) == 1

    def test_multicast_charges_identical_cpu_and_links(self):
        simulator_a = Simulator(seed=3)
        network_a = build_two_rack(simulator_a)
        record_arrivals(network_a, "abcd")
        for dst in self.DSTS:
            network_a.hosts["a"].send(dst, "x", 400)
        simulator_a.run()

        simulator_b = Simulator(seed=3)
        network_b = build_two_rack(simulator_b)
        record_arrivals(network_b, "abcd")
        network_b.hosts["a"].multicast(self.DSTS, "x", 400)
        simulator_b.run()

        host_a, host_b = network_a.hosts["a"], network_b.hosts["a"]
        assert host_a._cpu_busy_until == host_b._cpu_busy_until
        assert host_a._cpu_busy_s == host_b._cpu_busy_s
        assert host_a.messages_sent == host_b.messages_sent
        for pair, link in network_a.links.items():
            other = network_b.links[pair]
            assert (link.bytes_sent, link.packets_sent, link._busy_until) == (
                other.bytes_sent,
                other.packets_sent,
                other._busy_until,
            ), f"link {pair} diverged"

    def test_multicast_interleaved_with_pending_sends(self):
        """A multicast queued behind earlier unflushed sends keeps their order."""

        def run(use_multicast):
            simulator = Simulator(seed=3)
            network = build_two_rack(simulator)
            arrivals = record_arrivals(network, "abcd")
            network.hosts["a"].send("b", "early", 20_000)
            if use_multicast:
                network.hosts["a"].multicast(["b", "c"], "late", 300)
            else:
                network.hosts["a"].send("b", "late", 300)
                network.hosts["a"].send("c", "late", 300)
            simulator.run()
            return [(dst, payload, t) for dst, _, payload, t in arrivals]

        assert run(True) == run(False)


class TestFanoutEdgeCases:
    def test_failed_destination_dropped_and_counted(self):
        simulator = Simulator(seed=0)
        network = build_two_rack(simulator)
        arrivals = record_arrivals(network, "abcd")
        network.hosts["c"].fail()
        network.hosts["a"].multicast(["b", "c", "d"], "m", 64)
        simulator.run()
        assert network.dropped_packets == 1
        assert sorted(dst for dst, _, _, _ in arrivals) == ["b", "d"]

    def test_loopback_member_delivered_locally(self):
        simulator = Simulator(seed=0)
        network = build_two_rack(simulator)
        arrivals = record_arrivals(network, "abcd")
        network.hosts["a"].multicast(["a", "b"], "m", 64)
        simulator.run()
        delivered = {dst for dst, _, _, _ in arrivals}
        assert delivered == {"a", "b"}
        loop_arrival = next(t for dst, _, _, t in arrivals if dst == "a")
        assert loop_arrival >= network.local_loopback_latency_s

    def test_failed_sender_sends_nothing(self):
        simulator = Simulator(seed=0)
        network = build_two_rack(simulator)
        arrivals = record_arrivals(network, "abcd")
        network.hosts["a"].fail()
        network.hosts["a"].multicast(["b", "c"], "m", 64)
        simulator.run()
        assert arrivals == []

    def test_unknown_destination_raises(self):
        """Every destination is checked at the send, before any CPU or link
        is charged: the valid ``b`` ahead of ``ghost`` costs nothing."""
        simulator = Simulator(seed=0)
        network = build_two_rack(simulator)
        host = network.hosts["a"]
        with pytest.raises(SimulationError, match="ghost"):
            host.multicast(["b", "ghost"], "m", 64)
        link = network.link("a", "tor1")
        assert (host.messages_sent, host._cpu_busy_until, host._cpu_busy_s) == (0, 0.0, 0.0)
        assert (link.packets_sent, link.bytes_sent, network.dropped_packets) == (0, 0, 0)
        simulator.run()
        assert simulator.loop.processed_events == 0


class TestDeliveryQueue:
    def test_out_of_order_push_raises(self):
        """Every pusher is fed from one host's CPU-busy chain, so a push
        earlier than the pending tail is a caller bug, not a case to batch
        around."""
        simulator = Simulator(seed=0)
        delivered = []
        queue = DeliveryQueue(simulator.loop, delivered.append, priority=5)
        queue.push(10.0, "late")
        with pytest.raises(SimulationError, match="out-of-order"):
            queue.push(5.0, "early")
        simulator.run()
        assert delivered == ["late"]

    def test_same_instant_items_flush_in_one_event(self):
        simulator = Simulator(seed=0)
        delivered = []
        queue = DeliveryQueue(simulator.loop, delivered.append, priority=5)
        for item in ("x", "y", "z"):
            queue.push(1.0, item)
        before = simulator.loop.processed_events
        simulator.run()
        assert delivered == ["x", "y", "z"]
        assert simulator.loop.processed_events == before + 1


class TestCpuUtilization:
    def test_idle_gaps_do_not_inflate_utilization(self):
        from repro.sim.network import Packet

        simulator = Simulator(seed=0)
        network = Network(simulator.loop)
        host = network.add_host("h", cpu=CpuModel(per_message_s=0.01, per_byte_s=0.0))
        host.set_handler(lambda s, p: None)
        packet = Packet(src="x", dst="h", payload=None, size_bytes=0)
        host.receive(packet)  # busy 0.00 - 0.01
        simulator.run_until(5.0)
        host.receive(packet)  # busy 5.00 - 5.01
        simulator.run_until(10.0)
        # Exactly 0.02 s of work in a 10 s window.  The old timestamp-based
        # accounting reported _cpu_busy_until / elapsed ~= 0.5.
        assert host.cpu_utilization(10.0) == pytest.approx(0.002)

    def test_send_cost_counts_toward_utilization(self):
        simulator = Simulator(seed=0)
        network = Network(simulator.loop)
        cpu = CpuModel(per_message_s=0.01, per_byte_s=0.0, send_fraction=0.5)
        network.add_host("a", cpu=cpu)
        network.add_host("b", cpu=cpu)
        network.add_link("a", "b", 1e-5, 1e9)
        network.hosts["b"].set_handler(lambda s, p: None)
        network.hosts["a"].send("b", "m", 0)
        simulator.run_until(1.0)
        assert network.hosts["a"].cpu_utilization(1.0) == pytest.approx(0.005)


class TestTransportBroadcast:
    def test_broadcast_excludes_self_and_counts_once_per_destination(self):
        from repro.runtime.sim_runtime import SimRuntime

        simulator = Simulator(seed=0)
        network = build_two_rack(simulator)
        runtime = SimRuntime(simulator, network.hosts["a"])
        record_arrivals(network, "bcd")
        runtime.transport.broadcast(["a", "b", "c"], "m", 100)
        simulator.run()
        assert runtime.transport.messages_sent == 2
        assert runtime.transport.bytes_sent == 200

    def test_broadcast_matches_sequential_transport_sends(self):
        from repro.runtime.sim_runtime import SimRuntime

        def run(use_broadcast):
            simulator = Simulator(seed=0)
            network = build_two_rack(simulator)
            runtime = SimRuntime(simulator, network.hosts["a"])
            arrivals = record_arrivals(network, "bcd")
            if use_broadcast:
                runtime.transport.broadcast(["b", "c", "d"], "m", 150)
            else:
                for dst in ("b", "c", "d"):
                    runtime.transport.send(dst, "m", 150)
            simulator.run()
            return [(d, t) for d, _, _, t in arrivals]

        assert run(True) == run(False)


SUBPROCESS_SCRIPT = textwrap.dedent(
    """
    import json, sys
    sys.path.insert(0, {src!r})
    from repro.sim.engine import Simulator
    from tests.test_multicast import build_two_rack, record_arrivals

    simulator = Simulator(seed=11)
    network = build_two_rack(simulator)
    arrivals = record_arrivals(network, "abcd")
    for burst in range(20):
        network.hosts["a"].multicast(["b", "c", "d", "a"], f"m{{burst}}", 200 + burst)
        network.hosts["c"].multicast(["a", "b"], f"r{{burst}}", 90)
    simulator.run()
    print(json.dumps([(d, s, p, repr(t)) for d, s, p, t in arrivals]))
    """
)


class TestProcessDeterminism:
    def test_multicast_schedule_is_identical_across_processes(self):
        """Two fresh interpreters produce byte-identical delivery traces."""
        import os

        src = os.path.join(os.path.dirname(__file__), "..", "src")
        root = os.path.join(os.path.dirname(__file__), "..")
        script = SUBPROCESS_SCRIPT.format(src=os.path.abspath(src))
        outputs = []
        for _ in range(2):
            result = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True,
                text=True,
                cwd=os.path.abspath(root),
                check=True,
            )
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0])  # non-empty trace
