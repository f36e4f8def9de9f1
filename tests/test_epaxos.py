"""Tests for the EPaxos baseline."""

import pytest

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
            assert replica.store.read("shared") == "42"

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


class TestFastPath:
    def test_same_key_writes_from_every_leader_all_commit_on_the_fast_path(self):
        """The contract is the paper's 0 % interference: writes to one key
        from every command leader never leave the fast path, and every
        replica executes all of them."""
        sim, _, protocol, _ = build()
        nodes = list(protocol.nodes.values())
        for burst in range(4):
            for node in nodes:
                node.submit(write("same-key", str(burst)))
            sim.run_until(0.2 * (burst + 1))
        sim.run_until(2.0)
        committed = sum(n.stats["instances_committed"] for n in nodes)
        assert committed == 4 * len(nodes)
        assert sum(n.stats["fast_path"] for n in nodes) == committed
        for node in nodes:
            assert len(node.instances) == committed
            assert all(instance.status == "executed" for instance in node.instances.values())
            assert node.stats["commands_executed"] == committed

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
        """Every replica keeps every instance; only the command leader
        counts PreAcceptOKs, and it stops counting at the fast quorum."""
        sim, _, protocol, _ = build(replica_count_per_rack=3, racks=3)
        leader, *acceptors = protocol.nodes.values()
        leader.submit(write("k"))
        instance_id = InstanceId(replica=leader.node_id, slot=1)
        while leader.instances.get(instance_id) is None or not leader.instances[instance_id].preaccept_oks:
            assert sim.loop.step() and sim.now < 0.1
        holders = [node for node in acceptors if instance_id in node.instances]
        assert holders
        for node in holders:
            assert node.instances[instance_id].preaccept_oks == 0
        sim.run_until(0.5)
        for node in protocol.nodes.values():
            assert node.instances[instance_id].status == "executed"
        for node in acceptors:
            assert node.instances[instance_id].preaccept_oks == 0
        assert leader.instances[instance_id].preaccept_oks == leader.fast_quorum_size()


class TestMessageBudget:
    """One instance costs a PreAccept round to the quorum peers and one
    Commit to every peer: no second phase and no extra fan-out."""

    @pytest.mark.parametrize(
        "thrifty, preaccepts, total_bytes",
        [(False, 8, 2112), (True, 6, 1792)],
        ids=["all-peers", "thrifty"],
    )
    def test_one_write_at_3x3(self, thrifty, preaccepts, total_bytes):
        config = EPaxosConfig(batch_duration_s=0.001, thrifty=thrifty, latency_probing=False)
        sim, _, protocol, _ = build(replica_count_per_rack=3, racks=3, config=config)
        wire = []
        for node in protocol.nodes.values():

            def handler(sender, message, node=node):
                wire.append(type(message).__name__)
                node.on_message(sender, message)

            node.runtime.set_handler(handler)
        leader = next(iter(protocol.nodes.values()))
        leader.submit(write("k"))
        sim.run_until(0.5)
        assert all(node.stats["commands_executed"] == 1 for node in protocol.nodes.values())
        peers = len(leader.peers())
        assert sorted(set(wire)) == ["Commit", "PreAccept", "PreAcceptOK"]
        assert wire.count("PreAccept") == wire.count("PreAcceptOK") == preaccepts
        assert wire.count("Commit") == peers
        # PreAccept and Commit are 56 + 48 B with one command, PreAcceptOK 56 B.
        transports = [node.transport for node in protocol.nodes.values()]
        assert sum(t.messages_sent for t in transports) == len(wire) == 2 * preaccepts + peers
        assert sum(t.bytes_sent for t in transports) == total_bytes


class TestQuorums:
    def test_quorum_sizes(self):
        sim, _, protocol, _ = build(replica_count_per_rack=3, racks=3)  # 9 replicas
        node = next(iter(protocol.nodes.values()))
        assert node.fast_quorum_size() == 6

    def test_thrifty_limits_preaccept_fanout(self):
        config = EPaxosConfig(batch_duration_s=0.001, thrifty=True, latency_probing=False)
        sim, topo, protocol, _ = build(replica_count_per_rack=3, racks=3, config=config)
        node = next(iter(protocol.nodes.values()))
        node.submit(write("k"))
        sim.run_until(0.1)
        host = topo.network.hosts[node.node_id]
        # Thrifty: PreAccept goes to the fast quorum only (6), Commit to all 8 peers.
        assert host.messages_sent == node.fast_quorum_size() + len(node.peers())

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
