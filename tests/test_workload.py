"""Tests for the keyspace, client agents and workload generator."""

import dataclasses
import heapq
import random

import pytest

from repro.bench.builders import build_system, make_single_dc_topology
from repro.canopus.config import CanopusConfig
from repro.metrics.collector import MetricsCollector
from repro.runtime.messages import ClientReply, RequestType
from repro.sim.engine import Simulator
from repro.workload.clients import ClientHostAgent, ClientProcess
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

    def test_a_single_key_keyspace_always_draws_it(self):
        keyspace = Keyspace(key_count=1, rng=random.Random(2))
        assert {keyspace.next_key() for _ in range(20)} == {"k0000000"}

    def test_the_default_value_is_eight_characters_of_digits(self):
        keyspace = Keyspace(key_count=10, rng=random.Random(6))
        for _ in range(20):
            value = keyspace.next_value()
            assert len(value) == 8
            assert value[0] == "v" and value[1:].isdigit()


class _FakeRuntime:
    """Clock, timers and egress of one client host, with no network behind it.

    Timers run in (time, schedule order), as the simulator runs them; every
    send is recorded as ``(time, destination, request)``.
    """

    def __init__(self, seed=1):
        self.node_id = "client-0"
        self.rng = random.Random(seed)
        self.clock = 0.0
        self.timers = []
        self.seq = 0
        self.sent = []
        self.handler = None
        self.transport = self

    def now(self):
        return self.clock

    def call_at(self, when, callback):
        heapq.heappush(self.timers, (when, self.seq, callback))
        self.seq += 1

    def set_handler(self, handler):
        self.handler = handler

    def send(self, dst, message, size_bytes):
        self.sent.append((self.clock, dst, message))

    def run_until(self, end):
        while self.timers and self.timers[0][0] <= end:
            when, _, callback = heapq.heappop(self.timers)
            self.clock = when
            callback()
        self.clock = end


class TestArrivalSchedule:
    """The open-loop arrival schedule of one :class:`ClientHostAgent`."""

    def agent(self, rates=(400.0, 250.0, 150.0), write_ratio=0.3, seed=4):
        runtime = _FakeRuntime()
        processes = [
            ClientProcess(process_id=f"p{index}", target_node=f"n{index}",
                          request_rate_hz=rate, write_ratio=write_ratio)
            for index, rate in enumerate(rates)
        ]
        agent = ClientHostAgent(
            runtime=runtime,
            processes=processes,
            keyspace=Keyspace(key_count=100, rng=random.Random(5)),
            collector=MetricsCollector(),
            rng=random.Random(seed),
        )
        return runtime, agent

    def test_each_arrival_draws_its_kind_then_its_successor_gap(self):
        """The draw order every benchmark digest rests on, across chunk refills.

        Each process first draws its initial gap, in process order; each
        arrival then draws one ``random()`` for write-or-read and one
        ``expovariate`` for its process's next arrival.
        """
        runtime, agent = self.agent()
        agent.start()
        runtime.run_until(2.0)
        assert len(runtime.sent) > 1100  # past two 512-arrival chunks

        rng = random.Random(4)
        heap = [(rng.expovariate(process.request_rate_hz), index, process)
                for index, process in enumerate(agent.processes)]
        heapq.heapify(heap)
        count = len(heap)
        for when, dst, request in runtime.sent:
            t, _, process = heap[0]
            write = rng.random() < process.write_ratio
            heapq.heapreplace(heap, (t + rng.expovariate(process.request_rate_hz), count, process))
            count += 1
            assert (when, dst, request.client_id, request.submitted_at) == (
                t, process.target_node, process.process_id, t)
            assert request.op is (RequestType.WRITE if write else RequestType.READ)

    def test_a_write_ratio_of_one_sends_only_writes_with_values(self):
        runtime, agent = self.agent(write_ratio=1.0)
        agent.start()
        runtime.run_until(0.2)
        assert runtime.sent
        assert all(r.op is RequestType.WRITE and r.value is not None for _, _, r in runtime.sent)

    def test_a_write_ratio_of_zero_sends_only_reads_without_values(self):
        runtime, agent = self.agent(write_ratio=0.0)
        agent.start()
        runtime.run_until(0.2)
        assert runtime.sent
        assert all(r.op is RequestType.READ and r.value is None for _, _, r in runtime.sent)

    def test_a_process_with_no_rate_sends_nothing(self):
        runtime, agent = self.agent(rates=(300.0, 0.0))
        agent.start()
        runtime.run_until(0.5)
        assert {r.client_id for _, _, r in runtime.sent} == {"p0"}
        assert {r.client_id for r in agent.collector.records.values()} == {"p0"}

    def test_every_send_is_counted_and_recorded(self):
        runtime, agent = self.agent()
        agent.start()
        runtime.run_until(0.5)
        records = agent.collector.records
        assert [r.request_id for _, _, r in runtime.sent] == list(records)
        assert [records[r.request_id].client_id for _, _, r in runtime.sent] == [
            r.client_id for _, _, r in runtime.sent
        ]

    def test_stop_ends_the_arrivals(self):
        runtime, agent = self.agent()
        agent.start()
        runtime.run_until(0.2)
        agent.stop()
        sent = len(runtime.sent)
        runtime.run_until(0.6)
        assert sent > 0
        assert len(runtime.sent) == sent

    def test_a_second_start_keeps_the_one_schedule(self):
        once_runtime, once = self.agent()
        once.start()
        once_runtime.run_until(0.4)
        twice_runtime, twice = self.agent()
        twice.start()
        twice.start()
        twice_runtime.run_until(0.4)
        assert len(twice_runtime.sent) == len(once_runtime.sent)

    def test_a_restart_drops_the_timer_of_the_old_schedule(self):
        runtime, agent = self.agent(rates=(500.0,))
        agent.start()
        runtime.run_until(0.1)
        agent.stop()
        agent.start()
        runtime.run_until(1.1)
        # One schedule at 500/s for a second plus the first 0.1 s: a
        # surviving old timer would double the rate.
        assert 400 < len(runtime.sent) < 750

    def test_a_reply_completes_its_request_once(self):
        runtime, agent = self.agent()
        agent.start()
        runtime.run_until(0.05)
        _, _, request = runtime.sent[0]
        reply = ClientReply(request_id=request.request_id, client_id=request.client_id,
                            op=request.op, key=request.key, value=None, committed_cycle=1)
        runtime.handler("n0", reply)
        runtime.clock += 0.01
        runtime.handler("n0", dataclasses.replace(reply, server_id="n1"))
        runtime.handler("n0", "not a reply")
        (record,) = agent.collector.completed_records()
        assert (record.completed_at, record.server_id) == (0.05, "")


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

    def test_processes_share_the_aggregate_rate_round_robin_over_hosts(self):
        _, topology, _, generator, _ = self.build(rate=2400.0)
        hosts = topology.client_hosts
        for agent in generator.agents:
            for process in agent.processes:
                assert process.request_rate_hz == pytest.approx(200.0)
                index = int(process.process_id.rsplit("/p", 1)[1])
                assert agent.runtime.node_id == hosts[index % len(hosts)]
        assert sum(len(agent.processes) for agent in generator.agents) == 12

    def test_a_server_filter_binds_processes_only_to_its_servers(self):
        simulator = Simulator(seed=2)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3)
        wanted = [rack.server_hosts[0] for rack in topology.datacenters[0].racks]
        generator = WorkloadGenerator(topology, WorkloadConfig(client_processes=12, seed=2))
        generator.build(server_filter=wanted)
        targets = {p.target_node for agent in generator.agents for p in agent.processes}
        assert targets == set(wanted)
        for agent in generator.agents:
            for process in agent.processes:
                assert topology.rack_of(process.target_node) is topology.rack_of(agent.runtime.node_id)

    def test_a_server_filter_outside_the_rack_falls_back_to_its_servers_anywhere(self):
        simulator = Simulator(seed=2)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3)
        only = [topology.datacenters[0].racks[0].server_hosts[1]]
        generator = WorkloadGenerator(topology, WorkloadConfig(client_processes=9, seed=2))
        generator.build(server_filter=only)
        assert {p.target_node for agent in generator.agents for p in agent.processes} == set(only)

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
        assert all(collector.records[rid].completed_at is None for rid in refusals)
        assert generator.total_completed() == len(collector.completed_records())
