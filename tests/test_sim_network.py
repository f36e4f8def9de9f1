"""Unit tests for the network model (links, hosts, switches, routing)."""

import pytest

from repro.bench.builders import make_multi_dc_topology, make_single_dc_topology
from repro.bench.runner import _drive_switch_drain_mix
from repro.sim.engine import EventLoop, SimulationError, Simulator
from repro.sim.network import CpuModel, Host, Network, Packet


def make_pair(simulator, latency_s=0.001, bandwidth_bps=1e9, cpu=None):
    network = Network(simulator.loop)
    network.add_host("a", cpu=cpu)
    network.add_host("b", cpu=cpu)
    network.add_link("a", "b", latency_s, bandwidth_bps)
    return network


class TestDirectLink:
    def test_message_delivered_to_handler(self):
        sim = Simulator()
        network = make_pair(sim)
        received = []
        network.hosts["b"].set_handler(lambda sender, payload: received.append((sender, payload)))
        network.hosts["a"].send("b", "hello", 100)
        sim.run()
        assert received == [("a", "hello")]

    def test_delivery_takes_at_least_link_latency(self):
        sim = Simulator()
        network = make_pair(sim, latency_s=0.005)
        arrival = []
        network.hosts["b"].set_handler(lambda s, p: arrival.append(sim.now))
        network.hosts["a"].send("b", "x", 10)
        sim.run()
        assert arrival[0] >= 0.005

    def test_serialization_delay_scales_with_size(self):
        sim = Simulator()
        # 1 Mbps link: a 125000-byte payload takes ~1 second to serialize.
        network = make_pair(sim, latency_s=0.0, bandwidth_bps=1e6)
        arrival = []
        network.hosts["b"].set_handler(lambda s, p: arrival.append(sim.now))
        network.hosts["a"].send("b", "big", 125_000)
        sim.run()
        assert arrival[0] == pytest.approx(1.0, rel=0.05)

    def test_fifo_queuing_on_shared_link(self):
        sim = Simulator()
        network = make_pair(sim, latency_s=0.0, bandwidth_bps=1e6)
        order = []
        network.hosts["b"].set_handler(lambda s, p: order.append(p))
        network.hosts["a"].send("b", "first", 50_000)
        network.hosts["a"].send("b", "second", 50)
        sim.run()
        assert order == ["first", "second"]

    def test_loopback_delivery(self):
        sim = Simulator()
        network = make_pair(sim)
        received = []
        network.hosts["a"].set_handler(lambda s, p: received.append(p))
        network.hosts["a"].send("a", "self", 10)
        sim.run()
        assert received == ["self"]

    def test_link_statistics_updated(self):
        sim = Simulator()
        network = make_pair(sim)
        network.hosts["a"].send("b", "x", 100)
        sim.run()
        link = network.link("a", "b")
        assert link.packets_sent == 1
        assert link.bytes_sent > 100  # includes header overhead


class TestLinkTransmit:
    """``Link.transmit`` states the link arithmetic once; the two hot loops
    inline it and the eager reference (``tests/eager_network.py``) calls it."""

    def test_start_is_a_floor_under_the_serialization_start(self):
        sim = Simulator()
        link = make_pair(sim, latency_s=0.001, bandwidth_bps=1e6).link("a", "b")
        packet = Packet("a", "b", "x", 61)  # 125 bytes with the header: 1 ms on the wire
        assert link.transmit(packet, start=0.5) == pytest.approx(0.5 + 0.001 + 0.001)
        # A busy link wins over an earlier floor, and over the default (now).
        assert link.transmit(packet, start=0.25) == pytest.approx(0.5 + 0.002 + 0.001)
        assert link.transmit(packet) == pytest.approx(0.5 + 0.003 + 0.001)

    def test_injection_loop_inlines_the_same_arithmetic(self):
        items = [("b", "m", 100 * (i + 1), 0.001 * (i // 2)) for i in range(6)]
        sim_a, sim_b = Simulator(), Simulator()
        inlined = make_pair(sim_a, bandwidth_bps=1e6)
        inlined._deliver_fanout(inlined.hosts["a"], items)
        direct = make_pair(sim_b, bandwidth_bps=1e6).link("a", "b")
        arrivals = [
            direct.transmit(Packet("a", dst, payload, size), start=when)
            for dst, payload, size, when in items
        ]
        link = inlined.link("a", "b")
        assert (link._busy_until, link.bytes_sent, link.packets_sent) == (
            direct._busy_until,
            direct.bytes_sent,
            direct.packets_sent,
        )
        assert [when for when, _ in inlined.hosts["b"]._in_q] == arrivals


class TestConstruction:
    """Lane delivery is the only delivery model, so ``add_link`` refuses
    the two wirings it cannot model instead of falling back."""

    def test_zero_latency_link_at_a_switch_raises(self):
        network = Network(Simulator().loop)
        network.add_host("a")
        network.add_switch("s")
        with pytest.raises(SimulationError, match="zero-latency"):
            network.add_link("a", "s", 0.0, 1e9)
        assert network.links == {}

    def test_second_link_at_a_host_raises(self):
        network = make_pair(Simulator())
        network.add_switch("s")
        with pytest.raises(SimulationError, match="already has a link"):
            network.add_link("s", "b", 1e-5, 1e9)
        assert ("s", "b") not in network.links

    @pytest.mark.parametrize("nodes_per_rack", [3, 9])
    def test_single_datacenter_builder(self, nodes_per_rack):
        topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=nodes_per_rack)
        assert len(topology.server_hosts) == 3 * nodes_per_rack

    @pytest.mark.parametrize("regions", [3, 5, 7])
    def test_multi_datacenter_builder(self, regions):
        topology = make_multi_dc_topology(Simulator(seed=1), datacenters=regions)
        assert len(topology.server_hosts) == 3 * regions

    def test_switch_drain_microbench_tree(self):
        loop, trace = _drive_switch_drain_mix(EventLoop, 0, 1, False)
        assert trace == [] and loop.processed_events == 0


class TestFailures:
    def test_failed_destination_drops_packet(self):
        sim = Simulator()
        network = make_pair(sim)
        received = []
        network.hosts["b"].set_handler(lambda s, p: received.append(p))
        network.hosts["b"].fail()
        network.hosts["a"].send("b", "x", 10)
        sim.run()
        assert received == []
        assert network.dropped_packets == 1

    def test_failed_sender_sends_nothing(self):
        sim = Simulator()
        network = make_pair(sim)
        received = []
        network.hosts["b"].set_handler(lambda s, p: received.append(p))
        network.hosts["a"].fail()
        network.hosts["a"].send("b", "x", 10)
        sim.run()
        assert received == []

    def test_recovered_host_receives_again(self):
        sim = Simulator()
        network = make_pair(sim)
        received = []
        network.hosts["b"].set_handler(lambda s, p: received.append(p))
        network.hosts["b"].fail()
        network.hosts["b"].recover()
        network.hosts["a"].send("b", "x", 10)
        sim.run()
        assert received == ["x"]


class TestIdleHostDispatch:
    """A packet to an idle host costs one engine event, its dispatch, armed
    at the arrival's estimated CPU finish.  The dispatch queue is armed by
    instant: a packet that turns out to finish earlier than the armed
    estimate re-arms it, so every packet is dispatched at its own finish."""

    CPU = CpuModel(per_message_s=1e-4, per_byte_s=1e-6, send_fraction=0.0)

    def deliveries(self, sim, network):
        seen = []
        network.hosts["b"].set_handler(lambda sender, payload: seen.append((payload, sim.now)))
        return seen

    def test_a_packet_to_an_idle_host_costs_one_event(self):
        sim = Simulator()
        network = make_pair(sim)
        seen = self.deliveries(sim, network)
        network.hosts["a"].send("b", "x", 10)
        sim.run()
        assert [payload for payload, _ in seen] == ["x"]
        assert sim.loop.processed_events == 1

    def test_a_loopback_receive_is_dispatched_before_an_armed_link_arrival(self):
        sim = Simulator()
        network = make_pair(sim, cpu=self.CPU)
        seen = self.deliveries(sim, network)
        a, b = network.hosts["a"], network.hosts["b"]
        cost = self.CPU.service_time(Packet("b", "b", None, 10))
        a.send("b", "link", 10)  # arrives after 1 ms: b's dispatch is armed
        b.send("b", "loop", 10)
        sim.run()
        assert seen[0] == ("loop", pytest.approx(5e-6 + cost, rel=1e-12))
        assert seen[1][0] == "link" and seen[1][1] > 1e-3

    def test_the_arrival_after_a_dropped_one_is_dispatched_at_its_own_finish(self):
        """A 10 kB packet armed b's dispatch ~11 ms out; b was down when it
        arrived, so it was dropped and the next packet is b's to serve."""
        sim = Simulator()
        network = make_pair(sim, cpu=self.CPU)
        seen = self.deliveries(sim, network)
        a, b = network.hosts["a"], network.hosts["b"]
        a.send("b", "big", 10_000)
        sim.loop.schedule(0.5e-3, b.fail)
        sim.loop.schedule(2e-3, b.recover)
        sim.loop.schedule(3e-3, lambda: a.send("b", "small", 10))
        sim.run()
        assert [payload for payload, _ in seen] == ["small"]
        assert seen[0][1] < 4.5e-3

    def test_an_arrival_laned_behind_a_dropped_one_is_dispatched_at_its_own_finish(self):
        """The small packet is already in b's lane, behind the big one, when
        ``recover()`` drops the big one: its dispatch must not wait for the
        big packet's estimate, ~11 ms out."""
        sim = Simulator()
        network = make_pair(sim, cpu=self.CPU)
        seen = self.deliveries(sim, network)
        a, b = network.hosts["a"], network.hosts["b"]
        arrivals = []

        def send_small():
            a.send("b", "small", 10)
            arrivals.append(b._in_q[-1][0])

        a.send("b", "big", 10_000)
        sim.loop.schedule(0.4e-3, send_small)
        sim.loop.schedule(0.5e-3, b.fail)
        sim.loop.schedule(1.2e-3, b.recover)
        sim.run()
        finish = arrivals[0] + self.CPU.service_time(Packet("a", "b", None, 10))
        assert seen == [("small", pytest.approx(finish, rel=1e-12))]


def make_rack(simulator, cpu=None):
    """Three hosts on one switch, with identical links."""
    network = Network(simulator.loop)
    network.add_switch("tor")
    for name in ("a", "b", "c"):
        network.add_host(name, cpu=cpu)
        network.add_link(name, "tor", 1e-5, 1e9)
    return network


class TestSendOrderAtASwitch:
    """Two packets that reach a switch at one instant, put on their links
    at one instant, leave it in the order they were sent."""

    @pytest.mark.parametrize("senders", [("a", "b"), ("b", "a")])
    def test_equal_arrivals_are_forwarded_in_send_order(self, senders):
        sim = Simulator()
        network = make_rack(sim)
        order = []
        network.hosts["c"].set_handler(lambda sender, payload: order.append((sender, sim.now)))
        for sender in senders:
            network.hosts[sender].send("c", "x", 100)
        sim.run()
        assert [sender for sender, _ in order] == list(senders)
        # The second waited for the first on the shared link to c.
        assert order[0][1] < order[1][1]


class TestCrashStateAtTheSend:
    """A destination's crash state is read when the packet is sent: a
    CPU that takes 0.5 ms per send leaves room to change it in between."""

    CPU = CpuModel(per_message_s=1e-3, per_byte_s=0.0, send_fraction=0.5)

    def run(self, before_send, at_0_1_ms):
        sim = Simulator()
        network = make_rack(sim, cpu=self.CPU)
        received = []
        network.hosts["c"].set_handler(lambda sender, payload: received.append(payload))
        before_send(network.hosts["c"])
        network.hosts["a"].send("c", "x", 100)
        sim.loop.schedule(1e-4, lambda: at_0_1_ms(network.hosts["c"]))
        sim.run()
        return network, received

    def test_a_destination_down_at_the_send_drops_it_uncharged(self):
        """Recovered before the sender's CPU is done: the packet was
        already dropped, counted, and put on no link."""
        network, received = self.run(Host.fail, Host.recover)
        assert received == []
        assert network.dropped_packets == 1
        link = network.link("a", "tor")
        assert (link.packets_sent, link.bytes_sent) == (0, 0)

    def test_a_destination_that_crashes_in_flight_drops_it_on_arrival(self):
        network, received = self.run(lambda host: None, Host.fail)
        assert received == []
        assert network.dropped_packets == 0
        assert network.link("a", "tor").packets_sent == 1
        assert network.link("tor", "c").packets_sent == 1
        # Dropped as it arrives: never charged to c's CPU, never received.
        assert network.hosts["c"].cpu_utilization(1.0) == 0.0
        assert network.hosts["c"].messages_received == 0


class TestRouting:
    def build_two_rack_network(self, sim):
        network = Network(sim.loop)
        for name in ("h1", "h2", "h3"):
            network.add_host(name)
        network.add_switch("tor1")
        network.add_switch("tor2")
        network.add_switch("agg")
        network.add_link("h1", "tor1", 1e-5, 1e9)
        network.add_link("h2", "tor1", 1e-5, 1e9)
        network.add_link("h3", "tor2", 1e-5, 1e9)
        network.add_link("tor1", "agg", 5e-5, 1e9)
        network.add_link("tor2", "agg", 5e-5, 1e9)
        return network

    def test_path_within_rack_uses_only_tor(self):
        sim = Simulator()
        network = self.build_two_rack_network(sim)
        assert network.path("h1", "h2") == ["tor1", "h2"]

    def test_path_across_racks_traverses_aggregation(self):
        sim = Simulator()
        network = self.build_two_rack_network(sim)
        assert network.path("h1", "h3") == ["tor1", "agg", "tor2", "h3"]

    def test_cross_rack_delivery_works_end_to_end(self):
        sim = Simulator()
        network = self.build_two_rack_network(sim)
        received = []
        network.hosts["h3"].set_handler(lambda s, p: received.append((s, p)))
        network.hosts["h1"].send("h3", "cross", 10)
        sim.run()
        assert received == [("h1", "cross")]

    def test_intra_rack_is_faster_than_cross_rack(self):
        sim = Simulator()
        network = self.build_two_rack_network(sim)
        times = {}
        network.hosts["h2"].set_handler(lambda s, p: times.setdefault("intra", sim.now))
        network.hosts["h3"].set_handler(lambda s, p: times.setdefault("cross", sim.now))
        network.hosts["h1"].send("h2", "a", 10)
        network.hosts["h1"].send("h3", "b", 10)
        sim.run()
        assert times["intra"] < times["cross"]

    def test_no_route_raises(self):
        sim = Simulator()
        network = Network(sim.loop)
        network.add_host("a")
        network.add_host("isolated")
        network.add_host("b")
        network.add_link("a", "b", 1e-5, 1e9)
        with pytest.raises(SimulationError):
            network.send("a", "isolated", "x", 10)

    def test_duplicate_element_name_rejected(self):
        sim = Simulator()
        network = Network(sim.loop)
        network.add_host("a")
        with pytest.raises(SimulationError):
            network.add_switch("a")

    def test_send_from_switch_endpoint_rejected(self):
        sim = Simulator()
        network = Network(sim.loop)
        network.add_host("a")
        network.add_switch("s")
        network.add_link("a", "s", 1e-5, 1e9)
        with pytest.raises(SimulationError):
            network.send("s", "a", "x", 10)


class TestCpuModel:
    def test_service_time_includes_per_byte_cost(self):
        cpu = CpuModel(per_message_s=1e-6, per_byte_s=1e-8)
        small = Packet(src="a", dst="b", payload=None, size_bytes=10)
        large = Packet(src="a", dst="b", payload=None, size_bytes=10_000)
        assert cpu.service_time(large) > cpu.service_time(small)

    def test_send_time_is_fraction_of_receive(self):
        cpu = CpuModel(per_message_s=10e-6, per_byte_s=0.0, send_fraction=0.5)
        packet = Packet(src="a", dst="b", payload=None, size_bytes=0)
        assert cpu.send_time(packet) == pytest.approx(0.5 * cpu.service_time(packet))

    def test_receiver_cpu_serializes_messages(self):
        sim = Simulator()
        cpu = CpuModel(per_message_s=0.01, per_byte_s=0.0, send_fraction=0.0)
        network = make_pair(sim, latency_s=0.0, bandwidth_bps=1e12, cpu=cpu)
        done = []
        network.hosts["b"].set_handler(lambda s, p: done.append(sim.now))
        for _ in range(3):
            network.hosts["a"].send("b", "x", 1)
        sim.run()
        # Three messages at 10 ms service each must finish ~10 ms apart.
        assert done[1] - done[0] == pytest.approx(0.01, rel=0.1)
        assert done[2] - done[1] == pytest.approx(0.01, rel=0.1)
