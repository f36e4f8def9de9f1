"""Conformance suite: every registered protocol honours the shared contract.

Parametrized over the protocol registry, so a newly registered protocol is
automatically held to the same bar: a mixed read/write workload on a small
topology must produce replies for every request, identical commit logs on
every replica, and monotone, sensible stats.  The same bar is held again
on links of unequal, seed-drawn latency, where commands submitted at once
at different replicas meet in a different order at each of them.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.builders import (
    SCALED_HOST_BPS,
    SCALED_UPLINK_BPS,
    make_single_dc_topology,
    scaled_cpu_model,
)
from repro.protocols import ConsensusProtocol, build_protocol, registered_protocols
from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.topology import Datacenter, Rack, Topology
from repro.verify import check_linearizable_history
from repro.verify.agreement import check_cycle_agreement
from repro.verify.history import History
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

ALL_PROTOCOLS = registered_protocols()

VALID_CONSISTENCY_LEVELS = {"linearizable", "sequential"}


def history_from(requests, replies):
    """Build a verify.History from submitted requests and their replies.

    ``invoked_at`` is the server-side intake time (``submitted_at``) and
    ``completed_at`` the serving replica's reply time — both on the one
    deployment-wide clock, and both bracketing the operation's
    linearization point, so a correct protocol always admits an order.
    """
    answered = {reply.request_id: reply for reply in replies}
    history = History()
    for request in requests:
        reply = answered.get(request.request_id)
        if reply is None:
            continue
        history.add(
            client_id=request.client_id,
            kind="read" if request.is_read() else "write",
            key=request.key,
            value=reply.value if request.is_read() else request.value,
            invoked_at=request.submitted_at,
            completed_at=reply.completed_at,
        )
    return history


def drive_mixed_workload(protocol, simulator, writes=8, reads=6):
    """Submit writes then reads round-robin across nodes; run to quiescence."""
    node_ids = protocol.node_ids()
    requests = []
    for index in range(writes):
        request = ClientRequest(
            client_id=f"w{index}",
            op=RequestType.WRITE,
            key=f"key-{index % 3}",
            value=f"value-{index}",
        )
        protocol.submit(request, node_id=node_ids[index % len(node_ids)])
        requests.append(request)
        simulator.run_until(simulator.now + 0.03)
    simulator.run_until(simulator.now + 1.0)
    for index in range(reads):
        request = ClientRequest(
            client_id=f"r{index}", op=RequestType.READ, key=f"key-{index % 3}"
        )
        protocol.submit(request, node_id=node_ids[(index + 1) % len(node_ids)])
        requests.append(request)
        simulator.run_until(simulator.now + 0.03)
    simulator.run_until(simulator.now + 2.0)
    return requests


@pytest.fixture(params=ALL_PROTOCOLS)
def deployment(request):
    simulator = Simulator(seed=13)
    topology = make_single_dc_topology(simulator, nodes_per_rack=2, racks=2)
    replies = []
    protocol = build_protocol(request.param, topology, on_reply=replies.append)
    protocol.start()
    yield request.param, simulator, protocol, replies
    protocol.stop()


class TestConformance:
    def test_is_a_consensus_protocol(self, deployment):
        _, _, protocol, _ = deployment
        assert isinstance(protocol, ConsensusProtocol)
        assert len(protocol.node_ids()) == 4

    def test_every_request_is_answered(self, deployment):
        name, simulator, protocol, replies = deployment
        requests = drive_mixed_workload(protocol, simulator)
        answered = {reply.request_id for reply in replies}
        missing = [r.request_id for r in requests if r.request_id not in answered]
        assert not missing, f"{name}: {len(missing)} requests never answered"
        assert all(isinstance(reply, ClientReply) for reply in replies)

    def test_replicas_agree_on_the_commit_log(self, deployment):
        name, simulator, protocol, _ = deployment
        drive_mixed_workload(protocol, simulator)
        logs = protocol.committed_logs()
        assert len(logs) == 4
        distinct = {tuple(log) for log in logs.values()}
        assert len(distinct) == 1, f"{name}: replicas diverge: {logs}"
        assert len(next(iter(distinct))) > 0, f"{name}: nothing committed"
        if name in ("canopus", "zkcanopus"):
            # Cycle by cycle too: a flat prefix check lets a cycle committed
            # empty at one node pass against the same cycle with requests.
            ok, message = check_cycle_agreement({
                node_id: [(c.cycle_id, [r.request_id for r in c.requests])
                          for c in protocol.node(node_id).commit_log]
                for node_id in protocol.node_ids()
            })
            assert ok, f"{name}: {message}"

    def test_reads_see_committed_writes(self, deployment):
        name, simulator, protocol, replies = deployment
        node_ids = protocol.node_ids()
        write = ClientRequest(client_id="w", op=RequestType.WRITE, key="shared", value="42")
        protocol.submit(write, node_id=node_ids[0])
        simulator.run_until(simulator.now + 2.0)
        read = ClientRequest(client_id="r", op=RequestType.READ, key="shared")
        protocol.submit(read, node_id=node_ids[-1])
        simulator.run_until(simulator.now + 2.0)
        reply = next((r for r in replies if r.request_id == read.request_id), None)
        assert reply is not None, f"{name}: read never answered"
        assert reply.value == "42", f"{name}: read returned {reply.value!r}"

    def test_stats_are_monotone_and_nonnegative(self, deployment):
        name, simulator, protocol, _ = deployment
        before = protocol.stats()
        assert all(value >= 0 for value in before.values())
        drive_mixed_workload(protocol, simulator)
        after = protocol.stats()
        for key, value in before.items():
            assert after.get(key, 0) >= value, f"{name}: stat {key} went backwards"
        assert after.get("messages_sent", 0) > 0
        assert after.get("bytes_sent", 0) > 0

    def test_healthy_until_a_replica_crashes(self, deployment):
        name, simulator, protocol, _ = deployment
        assert protocol.is_healthy(), f"{name}: unhealthy at start"
        victim = protocol.node_ids()[-1]
        protocol.crash(victim)
        assert protocol.node(victim).crashed
        assert protocol.topology.network.hosts[victim].failed, f"{name}: crashed host still up"
        assert not protocol.is_healthy(), f"{name}: crash not reflected in is_healthy()"


def drive_contended_reads(protocol, simulator, rounds=4):
    """Writes to one key racing reads at other replicas, mid-propagation.

    Reads are deliberately issued while the write is still replicating, so
    any read path weaker than the write path (a local read at a lagging
    replica) has a real window in which to return a stale value.
    """
    node_ids = protocol.node_ids()
    requests = []
    for index in range(rounds):
        write = ClientRequest(
            client_id="writer", op=RequestType.WRITE, key="contended", value=f"v{index}"
        )
        protocol.submit(write, node_id=node_ids[0])
        requests.append(write)
        for offset, node_index in ((0.0005, 1), (0.002, -1)):
            simulator.run_until(simulator.now + offset)
            read = ClientRequest(
                client_id=f"reader-{node_index}", op=RequestType.READ, key="contended"
            )
            protocol.submit(read, node_id=node_ids[node_index])
            requests.append(read)
        simulator.run_until(simulator.now + 0.5)
    simulator.run_until(simulator.now + 2.0)
    return requests


#: Protocols whose replicas are known to apply the same commits in
#: different orders, each with the ROADMAP item that tracks it.
STORE_DIVERGES = {
    "epaxos": "two same-key commands from different command leaders are applied in different "
    "orders; see ROADMAP 'EPaxos reports a commit order no replica applied'",
}


@pytest.mark.parametrize("name", [
    pytest.param(
        name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=STORE_DIVERGES[name])
    )
    if name in STORE_DIVERGES else name
    for name in ALL_PROTOCOLS
])
def test_live_replicas_hold_equal_stores(name):
    """The replica-state oracle: whatever each protocol reports as its
    commit log, every live replica's store ends with the same map."""
    simulator = Simulator(seed=2)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3)
    protocol = build_protocol(name, topology)
    generator = WorkloadGenerator(
        topology, WorkloadConfig(aggregate_rate_hz=3000.0, write_ratio=0.5, key_count=50, seed=2)
    )
    generator.build()
    protocol.start()
    generator.start()
    simulator.run_until(0.4)
    generator.stop()
    simulator.run_until(1.5)  # drained
    snapshots = {
        node_id: store.snapshot()
        for node_id, store in protocol.stores.items()
        if not protocol.node(node_id).crashed
    }
    first, reference = next(iter(snapshots.items()))
    assert reference, f"{name}: nothing was written"
    differing = {
        node_id: sorted(key for key in reference.keys() | snapshot.keys()
                        if snapshot.get(key) != reference.get(key))
        for node_id, snapshot in snapshots.items()
        if snapshot != reference
    }
    assert not differing, f"{name}: keys that differ from {first}'s store: {differing}"


class TestReadConsistencyConformance:
    """Every protocol honours the read-consistency level it declares."""

    def test_declared_level_is_well_formed(self, deployment):
        name, _, protocol, _ = deployment
        level = protocol.read_consistency()
        assert level in VALID_CONSISTENCY_LEVELS, f"{name} declares {level!r}"

    def test_linearizable_protocols_pass_the_checker(self, deployment):
        name, simulator, protocol, replies = deployment
        if protocol.read_consistency() != "linearizable":
            pytest.skip(f"{name} declares {protocol.read_consistency()!r} reads")
        requests = drive_contended_reads(protocol, simulator)
        history = history_from(requests, replies)
        assert len(history) == len(requests), f"{name}: not every operation completed"
        ok, message = check_linearizable_history(history)
        assert ok, f"{name}: {message}"


#: Seeds of the skewed-link deployments; each draws its own link latencies.
SKEW_SEEDS = (1, 2, 3)


def make_skewed_topology(simulator, seed, racks=2, nodes_per_rack=2):
    """Two racks whose hosts each sit behind a link of its own latency.

    Every host-to-ToR latency is drawn from ``random.Random(seed)`` between
    5 µs and 400 µs, so the same broadcast reaches the replicas in an order
    that differs from seed to seed and from the uniform §8.1 topology.
    """
    rng = random.Random(seed)
    network = Network(simulator.loop)
    network.add_switch("agg-0")
    datacenter = Datacenter(name="dc-0", region="DC", aggregation="agg-0")
    for rack_index in range(racks):
        tor = f"tor-{rack_index}"
        network.add_switch(tor)
        network.add_link(tor, "agg-0", 1e-5, SCALED_UPLINK_BPS)
        rack = Rack(name=f"rack-{rack_index}", tor=tor)
        for node_index in range(nodes_per_rack):
            host_name = f"n{rack_index}-{node_index}"
            host = network.add_host(host_name, cpu=scaled_cpu_model())
            host.rack, host.datacenter = rack.name, datacenter.name
            network.add_link(host_name, tor, rng.uniform(5e-6, 4e-4), SCALED_HOST_BPS)
            rack.server_hosts.append(host_name)
        datacenter.racks.append(rack)
    return Topology(network=network, simulator=simulator, datacenters=[datacenter])


@pytest.fixture(params=[(name, seed) for name in ALL_PROTOCOLS for seed in SKEW_SEEDS],
                ids=lambda param: f"{param[0]}-{param[1]}")
def skewed_deployment(request):
    name, seed = request.param
    simulator = Simulator(seed=seed)
    topology = make_skewed_topology(simulator, seed)
    replies = []
    protocol = build_protocol(name, topology, on_reply=replies.append)
    protocol.start()
    yield name, simulator, protocol, replies
    protocol.stop()


def host_latency(protocol, node_id):
    network = protocol.topology.network
    return network.link(node_id, network.next_hop(node_id, "agg-0")).latency_s


class TestConformanceOnSkewedLinks:
    """The conformance bar on links of unequal latency, seed by seed.

    Commands submitted at the same instant at different replicas meet each
    other in a different order at every replica, which the uniform
    topology of :class:`TestConformance` never arranges.
    """

    def test_racing_writes_are_answered_and_replicas_agree(self, skewed_deployment):
        name, simulator, protocol, replies = skewed_deployment
        node_ids = protocol.node_ids()
        requests = []
        for index, node_id in enumerate(node_ids):
            request = ClientRequest(
                client_id=f"w{index}", op=RequestType.WRITE,
                key=f"key-{index % 2}", value=f"value-{index}",
            )
            protocol.submit(request, node_id=node_id)
            requests.append(request)
        simulator.run_until(simulator.now + 2.0)
        for index, node_id in enumerate(node_ids):
            request = ClientRequest(client_id=f"r{index}", op=RequestType.READ, key=f"key-{index % 2}")
            protocol.submit(request, node_id=node_id)
            requests.append(request)
        simulator.run_until(simulator.now + 2.0)
        answered = {reply.request_id for reply in replies}
        missing = [r.request_id for r in requests if r.request_id not in answered]
        assert not missing, f"{name}: {len(missing)} requests never answered"
        logs = protocol.committed_logs()
        distinct = {tuple(log) for log in logs.values()}
        assert len(distinct) == 1, f"{name}: replicas diverge: {logs}"
        assert len(next(iter(distinct))) >= len(node_ids), f"{name}: writes missing from {logs}"

    def test_read_at_the_nearest_replica_sees_a_write_at_the_farthest(self, skewed_deployment):
        name, simulator, protocol, replies = skewed_deployment
        by_latency = sorted(protocol.node_ids(), key=lambda node_id: host_latency(protocol, node_id))
        write = ClientRequest(client_id="w", op=RequestType.WRITE, key="shared", value="42")
        protocol.submit(write, node_id=by_latency[-1])
        simulator.run_until(simulator.now + 2.0)
        read = ClientRequest(client_id="r", op=RequestType.READ, key="shared")
        protocol.submit(read, node_id=by_latency[0])
        simulator.run_until(simulator.now + 2.0)
        reply = next((r for r in replies if r.request_id == read.request_id), None)
        assert reply is not None, f"{name}: read never answered"
        assert reply.value == "42", f"{name}: read returned {reply.value!r}"

    def test_racing_reads_stay_linearizable(self, skewed_deployment):
        name, simulator, protocol, replies = skewed_deployment
        if protocol.read_consistency() != "linearizable":
            pytest.skip(f"{name} declares {protocol.read_consistency()!r} reads")
        requests = drive_contended_reads(protocol, simulator)
        history = history_from(requests, replies)
        assert len(history) == len(requests), f"{name}: not every operation completed"
        ok, message = check_linearizable_history(history)
        assert ok, f"{name}: {message}"


class TestRegistry:
    def test_builtin_protocols_are_registered(self):
        assert ALL_PROTOCOLS == ["canopus", "zkcanopus", "epaxos", "zookeeper"]

    def test_unknown_protocol_raises_with_known_names(self):
        simulator = Simulator(seed=1)
        topology = make_single_dc_topology(simulator, nodes_per_rack=2, racks=2)
        with pytest.raises(ValueError, match="canopus"):
            build_protocol("viewstamped-replication", topology)

    def test_wrong_config_type_rejected(self):
        from repro.epaxos.node import EPaxosConfig

        simulator = Simulator(seed=1)
        topology = make_single_dc_topology(simulator, nodes_per_rack=2, racks=2)
        with pytest.raises(TypeError, match="CanopusConfig"):
            build_protocol("canopus", topology, config=EPaxosConfig())

    @pytest.mark.parametrize("name", ALL_PROTOCOLS)
    def test_a_topology_without_server_hosts_is_rejected(self, name):
        simulator = Simulator(seed=1)
        topology = Topology(network=Network(simulator.loop), simulator=simulator)
        with pytest.raises(ValueError, match=f"{name}.*no server hosts"):
            build_protocol(name, topology)
