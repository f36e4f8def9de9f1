"""Tests for the EPaxos baseline."""


from repro.epaxos.messages import InstanceId
from repro.epaxos.node import EPaxosConfig
from repro.protocols import build_protocol
from repro.runtime.messages import ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.sim.topology import build_single_datacenter


def build(replica_count_per_rack=1, racks=3, config=None, seed=13):
    sim = Simulator(seed=seed)
    topo = build_single_datacenter(sim, nodes_per_rack=replica_count_per_rack, racks=racks)
    replies = []
    protocol = build_protocol(
        "epaxos", topo, config=config or EPaxosConfig(batch_duration_s=0.002), on_reply=replies.append
    )
    protocol.start()
    return sim, topo, protocol, replies


def write(key, value="v", client="c"):
    return ClientRequest(client_id=client, op=RequestType.WRITE, key=key, value=value)


def read(key, client="c"):
    return ClientRequest(client_id=client, op=RequestType.READ, key=key)


class TestCommitAndExecute:
    def test_single_write_commits_and_replies(self):
        sim, _, protocol, replies = build()
        node = next(iter(protocol.nodes.values()))
        request = write("k")
        node.submit(request)
        sim.run_until(0.5)
        assert any(r.request_id == request.request_id for r in replies)
        assert node.stats["instances_committed"] >= 1

    def test_committed_command_executes_on_every_replica(self):
        sim, _, protocol, _ = build()
        node = next(iter(protocol.nodes.values()))
        node.submit(write("shared", "42"))
        sim.run_until(0.5)
        for replica in protocol.nodes.values():
            assert replica._store.get("shared") == "42"

    def test_reads_travel_through_the_protocol(self):
        """Unlike Canopus, EPaxos replicates read commands too."""
        sim, _, protocol, replies = build()
        nodes = list(protocol.nodes.values())
        nodes[0].submit(write("k", "1"))
        sim.run_until(0.5)
        request = read("k")
        nodes[1].submit(request)
        sim.run_until(1.0)
        reply = next(r for r in replies if r.request_id == request.request_id)
        assert reply.value == "1"
        # The read was an instance of its own on the second replica.
        assert nodes[1].stats["instances_committed"] >= 1

    def test_batching_groups_requests_into_one_instance(self):
        config = EPaxosConfig(batch_duration_s=0.01)
        sim, _, protocol, _ = build(config=config)
        node = next(iter(protocol.nodes.values()))
        for i in range(5):
            node.submit(write(f"k{i}"))
        sim.run_until(0.5)
        assert node.next_slot == 1
        assert node.stats["commands_executed"] >= 5

    def test_batch_flushes_when_full(self):
        config = EPaxosConfig(batch_duration_s=10.0, max_batch_size=2)
        sim, _, protocol, _ = build(config=config)
        node = next(iter(protocol.nodes.values()))
        node.submit(write("a"))
        node.submit(write("b"))
        sim.run_until(0.5)
        assert node.stats["instances_committed"] >= 1


class TestFastAndSlowPath:
    def test_no_interference_takes_fast_path(self):
        sim, _, protocol, _ = build(config=EPaxosConfig(batch_duration_s=0.002, conflict_tracking=False))
        nodes = list(protocol.nodes.values())
        for node in nodes:
            node.submit(write("same-key"))
        sim.run_until(1.0)
        assert sum(n.stats["fast_path"] for n in nodes) >= 3
        assert sum(n.stats["slow_path"] for n in nodes) == 0

    def test_conflicting_writes_exercise_slow_path(self):
        config = EPaxosConfig(batch_duration_s=0.002, conflict_tracking=True)
        sim, _, protocol, _ = build(config=config)
        nodes = list(protocol.nodes.values())
        # Several rounds of writes to the same key from different leaders.
        for burst in range(4):
            for node in nodes:
                node.submit(write("contended", str(burst)))
            sim.run_until(0.2 * (burst + 1))
        sim.run_until(2.0)
        assert sum(n.stats["slow_path"] for n in nodes) >= 1

    def test_every_replica_converges_on_committed_instances(self):
        sim, _, protocol, _ = build()
        nodes = list(protocol.nodes.values())
        for index, node in enumerate(nodes):
            node.submit(write(f"key-{index}"))
        sim.run_until(1.0)
        instance_sets = [
            {iid for iid, inst in node.instances.items() if inst.status in ("committed", "executed")}
            for node in nodes
        ]
        assert instance_sets[0] == instance_sets[1] == instance_sets[2]
        assert len(instance_sets[0]) == 3


class TestRetainedState:
    def test_only_the_command_leader_keeps_reply_bookkeeping(self):
        """Every replica keeps every instance; the reply list and ack set
        exist only at the command leader, and only until it commits."""
        sim, _, protocol, _ = build(replica_count_per_rack=3, racks=3)
        leader, *acceptors = protocol.nodes.values()
        leader.submit(write("k"))
        instance_id = InstanceId(replica=leader.node_id, slot=1)
        while leader.instances.get(instance_id) is None or not leader.instances[instance_id].preaccept_replies:
            assert sim.loop.step() and sim.now < 0.1
        holders = [node for node in acceptors if instance_id in node.instances]
        assert holders
        for node in holders:
            instance = node.instances[instance_id]
            assert instance.preaccept_replies is None and instance.accept_oks is None
        sim.run_until(0.5)
        for node in protocol.nodes.values():
            instance = node.instances[instance_id]
            assert instance.status == "executed"
            assert instance.preaccept_replies is None and instance.accept_oks is None


class TestQuorums:
    def test_quorum_sizes(self):
        sim, _, protocol, _ = build(replica_count_per_rack=3, racks=3)  # 9 replicas
        node = next(iter(protocol.nodes.values()))
        assert node.fast_quorum_size() == 6
        assert node.slow_quorum_size() == 4

    def test_thrifty_limits_preaccept_fanout(self):
        config = EPaxosConfig(batch_duration_s=0.001, thrifty=True, latency_probing=False)
        sim, topo, protocol, _ = build(replica_count_per_rack=3, racks=3, config=config)
        node = next(iter(protocol.nodes.values()))
        node.submit(write("k"))
        sim.run_until(0.1)
        host = topo.network.hosts[node.node_id]
        # Thrifty: PreAccept goes to the fast quorum only (6), not all 26 peers.
        assert host.messages_sent <= 1 + node.fast_quorum_size() + len(node.peers())

    def test_latency_probing_populates_rtt_estimates(self):
        config = EPaxosConfig(latency_probing=True, probe_interval_s=0.05)
        sim, _, protocol, _ = build(config=config)
        node = next(iter(protocol.nodes.values()))
        sim.run_until(0.5)
        assert all(rtt > 0 for rtt in node.rtt_estimates.values())

    def test_instance_ids_order_by_replica_then_slot(self):
        a1 = InstanceId(replica="a", slot=1)
        a2 = InstanceId(replica="a", slot=2)
        b1 = InstanceId(replica="b", slot=1)
        assert a1 < a2 < b1
