"""Tests for the keyspace, client agents and workload generator."""

import random

import pytest

from repro.bench.builders import build_system, make_single_dc_topology
from repro.canopus.config import CanopusConfig
from repro.sim.engine import Simulator
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from repro.workload.keyspace import Keyspace


class TestKeyspace:
    def test_uniform_keys_within_range(self):
        keyspace = Keyspace(key_count=100, rng=random.Random(1))
        for _ in range(200):
            key = keyspace.next_key()
            assert key.startswith("k")
            assert 0 <= int(key[1:]) < 100

    def test_uniform_is_not_skewed_to_head(self):
        keyspace = Keyspace(key_count=1000, rng=random.Random(3))
        draws = [int(keyspace.next_key()[1:]) for _ in range(2000)]
        top_ten = sum(1 for index in draws if index < 10)
        assert top_ten < 100

    def test_values_have_requested_size(self):
        keyspace = Keyspace(key_count=10, rng=random.Random(4))
        assert len(keyspace.next_value(size=8)) == 8

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            Keyspace(key_count=0)

    def test_same_seed_same_sequence(self):
        a = Keyspace(key_count=50, rng=random.Random(9))
        b = Keyspace(key_count=50, rng=random.Random(9))
        assert [a.next_key() for _ in range(20)] == [b.next_key() for _ in range(20)]


class TestWorkloadGenerator:
    def build(self, rate=2000.0, write_ratio=0.2, seed=5):
        simulator = Simulator(seed=seed)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3)
        sut = build_system("canopus", topology)
        config = WorkloadConfig(
            client_processes=12,
            aggregate_rate_hz=rate,
            write_ratio=write_ratio,
            key_count=100,
            seed=seed,
        )
        generator = WorkloadGenerator(topology, config)
        collector = generator.build()
        return simulator, topology, sut, generator, collector

    def test_clients_bind_to_servers_in_their_own_rack(self):
        _, topology, _, generator, _ = self.build()
        for agent in generator.agents:
            client_rack = topology.rack_of(agent.runtime.node_id).name
            for process in agent.processes:
                assert topology.rack_of(process.target_node).name == client_rack

    def test_requests_flow_and_complete(self):
        simulator, _, sut, generator, collector = self.build()
        sut.start()
        generator.start()
        simulator.run_until(0.3)
        generator.stop()
        simulator.run_until(0.4)
        sut.stop()
        assert generator.total_sent() > 50
        assert generator.total_completed() > 0
        summary = collector.summarize(0.05, 0.3)
        assert summary.requests_completed > 0
        assert summary.throughput_rps > 0

    def test_write_ratio_respected_approximately(self):
        simulator, _, sut, generator, collector = self.build(write_ratio=0.5)
        sut.start()
        generator.start()
        simulator.run_until(0.3)
        generator.stop()
        simulator.run_until(0.4)
        sut.stop()
        records = list(collector.records.values())
        writes = sum(1 for record in records if record.op.value == "write")
        ratio = writes / len(records)
        assert 0.35 < ratio < 0.65

    def test_offered_rate_close_to_configured(self):
        simulator, _, sut, generator, collector = self.build(rate=3000.0)
        sut.start()
        generator.start()
        simulator.run_until(0.4)
        generator.stop()
        submitted = [r for r in collector.records.values() if 0.1 <= r.submitted_at <= 0.4]
        offered = len(submitted) / 0.3
        assert 2000 < offered < 4200

    def test_generator_requires_client_hosts(self):
        simulator = Simulator(seed=1)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3)
        topology.datacenters[0].racks[0].client_hosts.clear()
        topology.datacenters[0].racks[1].client_hosts.clear()
        topology.datacenters[0].racks[2].client_hosts.clear()
        generator = WorkloadGenerator(topology, WorkloadConfig(client_processes=4))
        with pytest.raises(ValueError):
            generator.build()

    def test_deterministic_given_seed(self):
        sim_a, _, sut_a, gen_a, col_a = self.build(seed=21)
        sut_a.start(); gen_a.start(); sim_a.run_until(0.2)
        sim_b, _, sut_b, gen_b, col_b = self.build(seed=21)
        sut_b.start(); gen_b.start(); sim_b.run_until(0.2)
        assert gen_a.total_sent() == gen_b.total_sent()


class TestRefusedReads:
    def test_a_refused_read_is_not_counted_as_completed(self):
        """The agents' completed count agrees with the collector's records.

        Two of a super-leaf's three nodes crash, so reads at its survivor
        are refused with ``NOT_IN_VIEW``.  A refusal answers nothing: the
        collector keeps the request unanswered, and so must the agent.
        """
        simulator = Simulator(seed=3)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=3)
        sut = build_system("canopus", topology, config=CanopusConfig(heartbeat_interval_s=0.02))
        config = WorkloadConfig(client_processes=30, aggregate_rate_hz=600.0, seed=3)
        generator = WorkloadGenerator(topology, config)
        collector = generator.build()
        refusals = []
        for agent in generator.agents:
            on_message = agent.on_message

            def count_refusals(sender, message, on_message=on_message):
                if getattr(message, "error", None) is not None:
                    refusals.append(message.request_id)
                on_message(sender, message)

            agent.runtime.set_handler(count_refusals)
        sut.start()
        generator.start()
        for victim in ("n2-0", "n2-2"):
            simulator.schedule(0.1, lambda victim=victim: sut.protocol.crash(victim))
        simulator.run_until(0.5)
        generator.stop()
        simulator.run_until(1.0)
        sut.stop()
        assert refusals, "the scenario must produce refusals"
        assert generator.total_completed() == len(collector.completed_records())
