"""Regression tests for the consistent-read paths (ISSUE 4).

Two read-path bugs are fixed and pinned here:

* **Stale Raft KV reads** — the original service answered reads from any
  replica's local store (ZooKeeper-style).  A write that committed at the
  leader could then be invisible to a read served by a lagging follower —
  a real-time ordering violation the linearizability checker flags.  The
  ``read_index`` mode (leader confirms its term with a heartbeat quorum
  before serving; followers forward) closes it; ``local`` mode is kept so
  this suite can prove the old behaviour fails the checker.

* **Fractured cross-shard reads** — the original :class:`ShardRouter` let
  a multi-key reader observe one 2PC participant's applied writes before
  another's.  The per-key decide-window fences plus ``read_txn`` snapshot
  reads close it; ``isolation=False`` reproduces the fracture that
  :func:`repro.verify.atomicity.check_read_isolation` must flag.
"""

from __future__ import annotations

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.protocols import build_protocol, protocol_spec
from repro.protocols.raft_kv import RaftKVConfig
from repro.raft.node import LEASE_FRACTION
from repro.runtime.messages import ClientRequest, RequestType
from repro.shard import ShardRouter, ShardedCluster
from repro.sim.engine import Simulator
from repro.verify import check_linearizable_history, check_read_isolation
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
        spec = protocol_spec("raft")
        assert spec.read_consistency == "linearizable"
        assert "read-index" in spec.description
        assert "local reads" not in spec.description


# ----------------------------------------------------------------------
# Cross-shard snapshot reads: fractured-read repro and fix
# ----------------------------------------------------------------------
def cross_shard_keys(cluster, count=2):
    """Distinct keys owned by ``count`` distinct shards."""
    chosen = {}
    index = 0
    while len(chosen) < count and index < 10_000:
        key = f"iso-{index}"
        shard = cluster.shard_of(key)
        if shard not in chosen:
            chosen[shard] = key
        index += 1
    assert len(chosen) == count, "could not find keys on distinct shards"
    return [chosen[shard] for shard in sorted(chosen)]


def run_decide_window_barrage(isolation, read_mode):
    """One cross-shard transaction with snapshot reads fired all through it.

    The two participants deliberately run *different* protocols — a Raft
    shard that applies a commit within a couple of network hops and a
    Canopus shard that waits for its next cycle — so the decide window
    (decision applied at one participant, not yet at the other) is
    milliseconds wide.  Reads are issued every 0.1 ms from submission to
    quiescence, so several land inside it.  Returns the router after
    quiescence.
    """
    simulator = Simulator(seed=23)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=2)
    cluster = ShardedCluster.build(
        topology,
        2,
        protocol=["raft", "canopus"],
        config=[RaftKVConfig(read_mode=read_mode), None],
    )
    router = ShardRouter(cluster, isolation=isolation)
    cluster.start()
    simulator.run_until(0.5)  # settle leaders/heartbeats

    key_a, key_b = cross_shard_keys(cluster)
    router.submit_transaction({key_a: "T1", key_b: "T1"}, client_id="txn-client")
    for _ in range(400):
        router.read_txn([key_a, key_b], client_id="barrage")
        simulator.run_until(simulator.now + 1e-4)
    simulator.run_until(simulator.now + 5.0)
    cluster.stop()
    return router


class TestCrossShardSnapshotReads:
    def test_pre_fix_router_produces_fractured_reads_the_checker_flags(self):
        """isolation=False + local reads == the pre-fix deployment."""
        router = run_decide_window_barrage(isolation=False, read_mode="local")
        assert router.stats["txns_committed"] == 1
        assert router.stats["read_txns_completed"] >= 400
        ok, message = check_read_isolation(router.snapshot_reads, router.committed_txn_order)
        assert not ok, "the pre-fix router must produce a fractured read"
        assert "fractured" in message

    def test_fenced_router_with_read_index_shards_produces_no_fractured_reads(self):
        router = run_decide_window_barrage(isolation=True, read_mode="read_index")
        assert router.stats["txns_committed"] == 1
        assert router.stats["read_txns_completed"] >= 400
        # The barrage straddles the decide window, so at least one read must
        # actually have been fenced for the scenario to prove anything.
        assert router.stats["reads_fenced"] >= 1
        ok, message = check_read_isolation(router.snapshot_reads, router.committed_txn_order)
        assert ok, message

    def test_single_key_ops_are_parked_while_the_decide_window_is_open(self):
        simulator = Simulator(seed=31)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=2)
        cluster = ShardedCluster.build(topology, 2, protocol="canopus")
        replies = []
        cluster.add_reply_listener(lambda _shard, reply: replies.append(reply))
        router = ShardRouter(cluster)
        cluster.start()
        key_a, key_b = cross_shard_keys(cluster)
        router.submit_transaction({key_a: "T1", key_b: "T1"}, client_id="txn")
        # Step until the decide window opens, then race a single-key read.
        for _ in range(20_000):
            if router._key_fences:
                break
            simulator.run_until(simulator.now + 1e-4)
        else:
            pytest.fail("decide window never opened")
        read = ClientRequest(client_id="racer", op=RequestType.READ, key=key_a)
        router.submit(read)
        assert router.stats["ops_fenced"] == 1
        simulator.run_until(simulator.now + 5.0)
        cluster.stop()
        reply = next((r for r in replies if r.request_id == read.request_id), None)
        assert reply is not None, "the parked read must be released and answered"
        assert reply.value == "T1", "a read after the fence lifts sees the txn's write"

    def test_read_txn_returns_a_complete_cut_at_quiescence(self):
        simulator = Simulator(seed=37)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=2)
        cluster = ShardedCluster.build(topology, 2, protocol="canopus")
        router = ShardRouter(cluster)
        cluster.start()
        key_a, key_b = cross_shard_keys(cluster)
        router.submit_transaction({key_a: "1", key_b: "2"}, client_id="txn")
        simulator.run_until(simulator.now + 5.0)
        results = {}
        router.read_txn([key_a, key_b], on_done=lambda rid, values: results.update(values))
        simulator.run_until(simulator.now + 5.0)
        cluster.stop()
        assert results == {key_a: "1", key_b: "2"}
        assert router.snapshot_reads[-1] == results


# ----------------------------------------------------------------------
# The isolation checker itself
# ----------------------------------------------------------------------
class TestReadIsolationChecker:
    COMMITTED = [
        ("t1", {"a": "1", "b": "1"}),
        ("t2", {"a": "2", "c": "2"}),
    ]

    def test_consistent_cuts_pass(self):
        reads = [
            {"a": None, "b": None},          # before everything
            {"a": "1", "b": "1"},            # cut after t1
            {"a": "2", "b": "1", "c": "2"},  # cut after t2
        ]
        ok, message = check_read_isolation(reads, self.COMMITTED)
        assert ok, message

    def test_fractured_cut_is_flagged(self):
        # Observes t1's write on "a" but misses it on "b": fractured.
        ok, message = check_read_isolation([{"a": "1", "b": None}], self.COMMITTED)
        assert not ok
        assert "fractured" in message and "t1" in message

    def test_skipped_intermediate_write_is_flagged(self):
        # Sees t2 on "a" yet still t... nothing on "c" from before t2.
        ok, message = check_read_isolation([{"a": "2", "c": None}], self.COMMITTED)
        assert not ok

    def test_unknown_values_are_unconstrained(self):
        # A value no transaction wrote (a single-key write) binds nothing.
        ok, message = check_read_isolation(
            [{"a": "other", "b": "1"}], self.COMMITTED
        )
        assert ok, message

    def test_empty_inputs_pass(self):
        ok, _ = check_read_isolation([], [])
        assert ok
        ok, _ = check_read_isolation([{"a": None}], [])
        assert ok


# ----------------------------------------------------------------------
# A shard-smoke-sized acceptance run (tier-1)
# ----------------------------------------------------------------------
class TestShardSmokeSizedIsolation:
    def test_shard_smoke_sized_run_has_no_fractured_reads(self):
        """The ISSUE 4 acceptance point: cross-shard txns + snapshot reads,
        all three checkers green on a shard-smoke-sized workload."""
        from repro.bench.shard_bench import ShardPointConfig, run_shard_point

        result = run_shard_point(
            ShardPointConfig(
                shard_count=2,
                protocol="canopus",
                nodes_per_rack=3,
                racks=2,
                rate_hz=8000.0,
                client_processes=18,
                multi_key_ratio=0.05,
                txn_read_ratio=0.3,
                measure_s=0.2,
                verify=True,
                seed=7,
            )
        )
        assert result.txns_committed > 0, "the mix must exercise cross-shard txns"
        assert result.read_txns_completed > 0, "the mix must exercise snapshot reads"
        assert result.linearizable, result.detail
        assert result.atomic, result.detail
        assert result.isolated, result.detail
