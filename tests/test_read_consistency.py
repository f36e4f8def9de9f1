"""Regression tests for the Raft KV consistent-read path.

**Stale Raft KV reads** — the original service answered reads from any
replica's local store (ZooKeeper-style).  A write that committed at the
leader could then be invisible to a read served by a lagging follower — a
real-time ordering violation the linearizability checker flags.  The
``read_index`` mode (leader confirms its term with a heartbeat quorum
before serving; followers forward) closes it; ``local`` mode is kept so
this suite can prove the old behaviour fails the checker.
"""

from __future__ import annotations

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.protocols import build_protocol, protocol_spec
from repro.protocols.raft_kv import RaftKVConfig
from repro.raft.node import LEASE_FRACTION
from repro.runtime.messages import ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.verify import check_linearizable_history
from repro.verify.history import History


# ----------------------------------------------------------------------
# Raft KV: stale local reads vs read-index reads
# ----------------------------------------------------------------------
def build_raft_deployment(read_mode):
    simulator = Simulator(seed=11)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=1)
    replies = []
    protocol = build_protocol(
        "raft", topology, config=RaftKVConfig(read_mode=read_mode), on_reply=replies.append
    )
    protocol.start()
    return simulator, protocol, replies


def run_stale_window_scenario(read_mode):
    """Write at the leader, then read at a follower in the stale window.

    The window is real: the leader applies a write the moment a majority
    acks it, but followers only apply once the *next* AppendEntries carries
    the advanced commit index — one network hop later.  The simulator is
    stepped in increments far smaller than that hop, so the read lands
    after the write completed (in real time) but before the follower
    applied it.
    """
    simulator, protocol, replies = build_raft_deployment(read_mode)
    leader = protocol.node_ids()[0]
    follower = protocol.node_ids()[1]

    write = ClientRequest(client_id="writer", op=RequestType.WRITE, key="k", value="new")
    protocol.submit(write, node_id=leader)
    for _ in range(100_000):
        if any(reply.request_id == write.request_id for reply in replies):
            break
        simulator.run_until(simulator.now + 2e-5)
    else:
        pytest.fail("write never completed")
    write_reply = next(reply for reply in replies if reply.request_id == write.request_id)

    # The follower must still be behind for the window to be genuine.
    assert protocol.stores[follower].read("k") is None, "follower already applied; no window"

    simulator.run_until(simulator.now + 1e-6)
    read = ClientRequest(client_id="reader", op=RequestType.READ, key="k")
    protocol.submit(read, node_id=follower)
    simulator.run_until(simulator.now + 2.0)
    read_reply = next(reply for reply in replies if reply.request_id == read.request_id)

    history = History()
    history.add("writer", "write", "k", "new", write.submitted_at, write_reply.completed_at)
    history.add("reader", "read", "k", read_reply.value, read.submitted_at, read_reply.completed_at)
    ok, _ = check_linearizable_history(history)
    protocol.stop()
    return read_reply.value, ok, protocol


class TestRaftReadModes:
    def test_local_reads_serve_stale_values_and_fail_the_checker(self):
        value, linearizable, _ = run_stale_window_scenario("local")
        assert value is None, "expected the lagging follower to serve the stale value"
        assert not linearizable, "the stale read must fail the linearizability checker"

    def test_read_index_reads_pass_the_checker_in_the_same_scenario(self):
        value, linearizable, protocol = run_stale_window_scenario("read_index")
        assert value == "new", "read-index read must observe the committed write"
        assert linearizable
        stats = protocol.stats()
        assert stats["read_forwards_sent"] >= 1, "the follower should forward to the leader"
        assert stats["read_index_rounds"] >= 1, "the leader should run a quorum round"

    def test_lease_reads_skip_the_quorum_round_once_leased(self):
        simulator, protocol, replies = build_raft_deployment("lease")
        leader = protocol.node_ids()[0]
        write = ClientRequest(client_id="w", op=RequestType.WRITE, key="k", value="v")
        protocol.submit(write, node_id=leader)
        # Let heartbeats establish the lease (majority-acked rounds).
        simulator.run_until(simulator.now + 1.0)
        read = ClientRequest(client_id="r", op=RequestType.READ, key="k")
        protocol.submit(read, node_id=leader)
        simulator.run_until(simulator.now + 1.0)
        reply = next(r for r in replies if r.request_id == read.request_id)
        assert reply.value == "v"
        stats = protocol.stats()
        assert stats["lease_reads_served"] >= 1, "the leased leader should serve locally"
        protocol.stop()

    def test_lease_arithmetic_is_simulated_time(self):
        """The lease horizon is a simulated-time quantity, not wall clock."""
        simulator, protocol, _ = build_raft_deployment("lease")
        leader_node = protocol.node(protocol.node_ids()[0])
        simulator.run_until(1.0)
        horizon = leader_node.raft.lease_valid_until
        config = leader_node.raft.config
        assert 0.0 < horizon <= simulator.now + LEASE_FRACTION * config.election_timeout_min_s
        protocol.stop()

    def test_switching_read_mode_at_runtime(self):
        simulator, protocol, replies = build_raft_deployment("local")
        assert protocol.read_consistency() == "sequential"
        protocol.set_read_mode("read_index")
        assert protocol.read_consistency() == "linearizable"
        for node in protocol.nodes.values():
            assert node.read_mode == "read_index"
        with pytest.raises(ValueError, match="read mode"):
            protocol.set_read_mode("eventually-maybe")
        protocol.stop()

    def test_stop_with_a_pending_read_index_round_is_safe(self):
        """stop() fails pending confirmations without re-serving forever."""
        simulator, protocol, replies = build_raft_deployment("read_index")
        leader = protocol.node_ids()[0]
        read = ClientRequest(client_id="r", op=RequestType.READ, key="k")
        # Registers a confirmation round at the leader; stop before any
        # follower can ack it.
        protocol.submit(read, node_id=leader)
        protocol.stop()  # must not recurse through serve -> confirm -> serve
        simulator.run_until(simulator.now + 1.0)
        assert all(reply.request_id != read.request_id for reply in replies)

    def test_registry_metadata_matches_default_mode(self):
        topology = make_single_dc_topology(Simulator(seed=11), nodes_per_rack=3, racks=1)
        assert build_protocol("raft", topology).read_consistency() == "linearizable"
        spec = protocol_spec("raft")
        assert "read-index" in spec.description
        assert "local reads" not in spec.description
