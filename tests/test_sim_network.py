"""Unit tests for the network model (links, hosts, switches, routing)."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from repro.sim.network import CpuModel, Network, Packet


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
    inline it."""

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
        inlined._deliver_fanout("a", items)
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
