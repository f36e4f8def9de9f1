"""Tests for the simulator's runtime and its transport."""

import pytest

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
        runtimes[name] = SimRuntime(sim, network.hosts[name])
    return sim, runtimes


class TestSimRuntime:
    def test_send_delivers_to_handler(self):
        sim, runtimes = build_sim_runtimes()
        received = []
        runtimes["h1"].set_handler(lambda s, m: received.append((s, m)))
        runtimes["h0"].transport.send("h1", "ping")
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
