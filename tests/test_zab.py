"""Tests for the ZooKeeper/Zab baseline."""

from types import SimpleNamespace

import pytest

from repro.protocols import build_protocol
from repro.runtime.messages import ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.sim.topology import build_single_datacenter
from repro.zab.messages import ZabProposal
from repro.zab.node import ZabConfig, ZabRole
from tests.test_kvstore import retained_bytes


def build(nodes_per_rack=3, racks=3, config=None, seed=17):
    sim = Simulator(seed=seed)
    topo = build_single_datacenter(sim, nodes_per_rack=nodes_per_rack, racks=racks)
    replies = []
    protocol = build_protocol("zookeeper", topo, config=config or ZabConfig(), on_reply=replies.append)
    protocol.start()
    return sim, topo, protocol, replies


def write(key, value="v", client="c"):
    return ClientRequest(client_id=client, op=RequestType.WRITE, key=key, value=value)


def read(key, client="c"):
    return ClientRequest(client_id=client, op=RequestType.READ, key=key)


class TestEnsembleLayout:
    def test_roles_match_paper_configuration(self):
        _, _, protocol, _ = build(nodes_per_rack=3, racks=3)  # 9 nodes
        roles = [node.role for node in protocol.nodes.values()]
        assert roles.count(ZabRole.LEADER) == 1
        assert roles.count(ZabRole.FOLLOWER) == 5
        assert roles.count(ZabRole.OBSERVER) == 3

    def test_all_extra_nodes_are_observers_at_27(self):
        _, _, protocol, _ = build(nodes_per_rack=9, racks=3)
        roles = [node.role for node in protocol.nodes.values()]
        assert roles.count(ZabRole.OBSERVER) == 27 - 6

    def test_quorum_size(self):
        _, _, protocol, _ = build()
        assert protocol.node(protocol.leader_id).quorum_size() == 4  # majority of 6 voters

    def test_storage_is_not_configurable(self):
        """Nothing modelled a log's durable time, so no knob claims to."""
        with pytest.raises(TypeError, match="storage"):
            ZabConfig(storage="ssd")


class TestWrites:
    def test_write_at_leader_commits_everywhere(self):
        sim, _, protocol, replies = build()
        leader = protocol.node(protocol.leader_id)
        request = write("k", "1")
        leader.submit(request)
        sim.run_until(0.5)
        assert any(r.request_id == request.request_id for r in replies)
        for node in protocol.nodes.values():
            assert node.store.read("k") == "1"

    def test_write_at_follower_is_forwarded_to_leader(self):
        sim, _, protocol, replies = build()
        follower = next(n for n in protocol.nodes.values() if n.role is ZabRole.FOLLOWER)
        request = write("fk", "2")
        follower.submit(request)
        sim.run_until(0.5)
        assert follower.stats["forwards_sent"] == 1
        assert any(r.request_id == request.request_id for r in replies)
        assert protocol.node(protocol.leader_id).store.read("fk") == "2"

    def test_write_at_observer_also_commits(self):
        sim, _, protocol, replies = build()
        observer = next(n for n in protocol.nodes.values() if n.role is ZabRole.OBSERVER)
        request = write("ok", "3")
        observer.submit(request)
        sim.run_until(0.5)
        assert any(r.request_id == request.request_id for r in replies)
        assert observer.store.read("ok") == "3"

    def test_writes_are_totally_ordered_by_zxid(self):
        sim, _, protocol, _ = build()
        nodes = list(protocol.nodes.values())
        for index, node in enumerate(nodes):
            node.submit(write(f"key-{index}", str(index)))
        sim.run_until(1.0)
        reference = [r.request_id for r in protocol.node(protocol.leader_id).committed_requests]
        assert len(reference) == len(nodes)
        for node in nodes:
            ids = [r.request_id for r in node.committed_requests]
            assert ids == reference

    def test_all_writes_funnel_through_the_leader(self):
        sim, topo, protocol, _ = build()
        nodes = list(protocol.nodes.values())
        for node in nodes:
            node.submit(write(f"w-{node.node_id}"))
        sim.run_until(1.0)
        assert protocol.node(protocol.leader_id).stats["proposals_sent"] == len(nodes)


class TestReads:
    def test_reads_are_served_locally_without_leader_involvement(self):
        sim, topo, protocol, replies = build()
        observer = next(n for n in protocol.nodes.values() if n.role is ZabRole.OBSERVER)
        leader_host = topo.network.hosts[protocol.leader_id]
        before = leader_host.messages_received
        request = read("missing")
        observer.submit(request)
        sim.run_until(0.2)
        assert any(r.request_id == request.request_id for r in replies)
        assert leader_host.messages_received == before

    def test_read_after_commit_sees_value(self):
        sim, _, protocol, replies = build()
        leader = protocol.node(protocol.leader_id)
        leader.submit(write("k", "99"))
        sim.run_until(0.5)
        follower = next(n for n in protocol.nodes.values() if n.role is ZabRole.FOLLOWER)
        request = read("k")
        follower.submit(request)
        sim.run_until(0.6)
        reply = next(r for r in replies if r.request_id == request.request_id)
        assert reply.value == "99"


class TestRetainedState:
    def test_only_the_leader_counts_acks(self):
        """A follower keeps the proposal it was sent, with no ack set; only
        the leader's transaction counts acks."""
        sim, _, protocol, _ = build()
        leader = protocol.node(protocol.leader_id)
        follower = next(n for n in protocol.nodes.values() if n.role is ZabRole.FOLLOWER)
        delivered = []

        def handler(sender, message):
            delivered.append(message)
            follower.on_message(sender, message)

        follower.runtime.set_handler(handler)
        leader.submit(write("k"))
        while not follower.pending_txns:
            assert sim.loop.step() and sim.now < 0.1
        (txn,) = follower.pending_txns.values()
        assert txn is delivered[-1] and type(txn) is ZabProposal
        assert leader.node_id in leader.pending_txns[txn.zxid].acks

    def test_a_follower_retains_at_most_48_bytes_a_pending_proposal(self):
        """Until its commit, a follower's pending proposal costs one dict
        entry (about 37 B at this count): the proposal itself is the message
        it was sent.  A copy of its own cost about 100 B.  The acks are
        dropped at the send: packets in flight, and the tuple free lists the
        network's queues leave filled, are not the follower's to keep."""
        count = 2_000
        _, _, protocol, _ = build()
        leader = protocol.node(protocol.leader_id)
        follower = next(n for n in protocol.nodes.values() if n.role is ZabRole.FOLLOWER)
        follower.transport = SimpleNamespace(send=lambda dst, message, size: None)
        proposals = [
            ZabProposal(zxid=zxid, origin=leader.node_id, requests=(write("k"),))
            for zxid in range(1, count + 1)
        ]

        def receive_all():
            for proposal in proposals:
                follower.on_message(leader.node_id, proposal)

        assert retained_bytes(receive_all) / count <= 48
        assert len(follower.pending_txns) == count

    def test_committed_transactions_are_forgotten(self):
        """Every replica drops a transaction at commit, and every replica
        still commits all 200 writes, in the order they were submitted."""
        sim, _, protocol, _ = build()
        nodes = list(protocol.nodes.values())
        requests = [write(f"k{index % 17}", str(index)) for index in range(200)]
        for index, request in enumerate(requests):
            node = nodes[index % len(nodes)]
            sim.schedule(index * 0.0005, lambda node=node, request=request: node.submit(request))
        sim.run_until(1.0)
        assert all(not node.pending_txns for node in nodes)
        first = requests[0].request_id
        logs = {node.node_id: [r.request_id - first for r in node.committed_requests] for node in nodes}
        assert all(log == list(range(200)) for log in logs.values())


class TestCrash:
    def test_crashed_leader_stops_committing(self):
        sim, _, protocol, replies = build()
        protocol.crash(protocol.leader_id)
        follower = next(n for n in protocol.nodes.values() if n.role is ZabRole.FOLLOWER)
        request = write("lost")
        follower.submit(request)
        sim.run_until(0.5)
        assert not any(r.request_id == request.request_id for r in replies)
