"""The sharded consensus subsystem: partitioner, cluster, router, 2PC."""

from __future__ import annotations

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.runtime.messages import NOT_IN_VIEW, ClientReply, ClientRequest, RequestType
from repro.shard import (
    TXN_COMMIT_PREFIX,
    TXN_PREPARE_PREFIX,
    KeyspacePartitioner,
    ShardedCluster,
    ShardMetrics,
    ShardRouter,
    assign_hosts,
    shard_view,
    txn_marker_kind,
)
from repro.shard.router import collect_txn_states
from repro.sim.engine import Simulator
from repro.verify import ShardTxnState, check_cross_shard_atomicity, check_linearizable_history
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from tests.helpers import fast_config, read, write


# ----------------------------------------------------------------------
# Partitioner
# ----------------------------------------------------------------------
class TestKeyspacePartitioner:
    def test_every_key_maps_to_exactly_one_known_shard(self):
        partitioner = KeyspacePartitioner(["s0", "s1", "s2"])
        for index in range(500):
            assert partitioner.shard_of(f"k{index}") in {"s0", "s1", "s2"}

    def test_mapping_is_deterministic_and_instance_independent(self):
        a = KeyspacePartitioner(["s0", "s1", "s2"])
        b = KeyspacePartitioner(["s0", "s1", "s2"])
        keys = [f"key-{i}" for i in range(200)]
        assert [a.shard_of(k) for k in keys] == [b.shard_of(k) for k in keys]

    def test_spread_is_roughly_balanced(self):
        partitioner = KeyspacePartitioner(["s0", "s1", "s2", "s3"])
        counts = partitioner.spread(f"k{i:05d}" for i in range(4000))
        assert all(count > 400 for count in counts.values()), counts

    def test_consistent_hashing_moves_few_keys_when_a_shard_joins(self):
        before = KeyspacePartitioner(["s0", "s1", "s2"])
        after = KeyspacePartitioner(["s0", "s1", "s2", "s3"])
        keys = [f"k{i:05d}" for i in range(2000)]
        moved = sum(1 for k in keys if before.shard_of(k) != after.shard_of(k))
        # Ideal is 1/4 of keys; anything far below a full reshuffle proves
        # the ring property.  Keys that move must move *to* the new shard.
        assert moved < len(keys) // 2
        assert all(
            after.shard_of(k) == "s3" for k in keys if before.shard_of(k) != after.shard_of(k)
        )

    def test_pinning_overrides_the_ring(self):
        partitioner = KeyspacePartitioner(["s0", "s1"], pinned={"hot": "s1"})
        assert partitioner.shard_of("hot") == "s1"
        partitioner.pin("hot", "s0")
        assert partitioner.shard_of("hot") == "s0"
        with pytest.raises(ValueError):
            partitioner.pin("x", "unknown-shard")

    def test_group_by_shard_covers_all_keys(self):
        partitioner = KeyspacePartitioner(["s0", "s1"])
        keys = [f"k{i}" for i in range(64)]
        grouped = partitioner.group_by_shard(keys)
        assert sorted(k for keys in grouped.values() for k in keys) == sorted(keys)


# ----------------------------------------------------------------------
# Host assignment and shard views
# ----------------------------------------------------------------------
class TestAssignmentAndViews:
    def test_assign_hosts_is_contiguous_and_exhaustive(self):
        hosts = [f"h{i}" for i in range(10)]
        assignment = assign_hosts(hosts, 3)
        assert list(assignment) == ["shard-0", "shard-1", "shard-2"]
        assert [h for group in assignment.values() for h in group] == hosts
        assert sorted(len(g) for g in assignment.values()) == [3, 3, 4]

    def test_assign_hosts_rejects_more_shards_than_hosts(self):
        with pytest.raises(ValueError):
            assign_hosts(["h0"], 2)

    def test_shard_view_keeps_rack_structure_and_drops_clients(self):
        simulator = Simulator(seed=1)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=2)
        view = shard_view(topology, ["n0-0", "n0-1", "n1-0"], "shard-x")
        assert view.server_hosts == ["n0-0", "n0-1", "n1-0"]
        assert view.client_hosts == []
        assert view.servers_by_rack() == {"rack-0": ["n0-0", "n0-1"], "rack-1": ["n1-0"]}
        assert view.network is topology.network
        with pytest.raises(ValueError):
            shard_view(topology, ["c0-0"], "bad")  # a client host is not a server


# ----------------------------------------------------------------------
# Sharded cluster
# ----------------------------------------------------------------------
def build_sharded(shard_count=2, protocol="canopus", seed=9, pins=(), **build_kwargs):
    simulator = Simulator(seed=seed)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=2)
    config = fast_config() if protocol in ("canopus", "zkcanopus") else None
    cluster = ShardedCluster.build(
        topology, shard_count, protocol=protocol, config=config, **build_kwargs
    )
    for key, shard in pins:
        cluster.partitioner.pin(key, shard)
    cluster.start()
    return simulator, cluster


class TestShardedCluster:
    def test_groups_are_disjoint_and_cover_all_servers(self):
        simulator, cluster = build_sharded(shard_count=3)
        all_nodes = [n for p in cluster.shards.values() for n in p.node_ids()]
        assert sorted(all_nodes) == sorted(cluster.topology.server_hosts)
        assert len(set(all_nodes)) == len(all_nodes)

    def test_single_key_ops_commit_only_on_the_owning_shard(self):
        simulator, cluster = build_sharded(pins=[("alpha", "shard-0"), ("beta", "shard-1")])
        cluster.submit(write("alpha", "1"))
        cluster.submit(write("beta", "2"))
        simulator.run_until(1.0)
        logs = cluster.per_shard_committed_logs()
        for shard_id, shard_logs in logs.items():
            lengths = {len(log) for log in shard_logs.values()}
            assert lengths == {1}, f"{shard_id}: {shard_logs}"

    def test_reads_see_writes_through_the_router(self):
        simulator, cluster = build_sharded(pins=[("alpha", "shard-0")])
        replies = []
        cluster.add_reply_listener(lambda shard, reply: replies.append(reply))
        cluster.submit(write("alpha", "42"))
        simulator.run_until(1.0)
        request = read("alpha")
        cluster.submit(request)
        simulator.run_until(2.0)
        reply = next(r for r in replies if r.request_id == request.request_id)
        assert reply.value == "42"

    def test_mixed_protocols_one_per_shard(self):
        simulator, cluster = build_sharded(
            shard_count=2, protocol=("canopus", "raft"), pins=[("a", "shard-0"), ("b", "shard-1")]
        )
        assert cluster.shards["shard-0"].name == "canopus"
        assert cluster.shards["shard-1"].name == "raft"
        cluster.submit(write("a", "1"))
        cluster.submit(write("b", "2"))
        simulator.run_until(1.5)
        for shard_id in cluster.shard_ids:
            logs = cluster.shards[shard_id].committed_logs()
            assert all(len(log) == 1 for log in logs.values()), (shard_id, logs)

    def test_intake_node_is_deterministic_and_within_the_shard(self):
        _, cluster = build_sharded(shard_count=2)
        for key in ("a", "b", "c"):
            shard = cluster.shard_of(key)
            node = cluster.intake_node(shard, key)
            assert node in cluster.shards[shard].node_ids()
            assert node == cluster.intake_node(shard, key)

    def test_stats_aggregate_over_shards(self):
        simulator, cluster = build_sharded()
        cluster.submit(write("k", "v"))
        simulator.run_until(1.0)
        per_shard = cluster.per_shard_stats()
        totals = cluster.stats()
        assert set(per_shard) == set(cluster.shard_ids)
        assert totals["messages_sent"] == sum(
            stats.get("messages_sent", 0) for stats in per_shard.values()
        )
        assert cluster.is_healthy()


# ----------------------------------------------------------------------
# Router: single-key routing and 2PC
# ----------------------------------------------------------------------
PINS = [("x", "shard-0"), ("y", "shard-1")]


class TestShardRouter:
    def test_reserved_prefix_is_rejected(self):
        _, cluster = build_sharded()
        router = ShardRouter(cluster)
        with pytest.raises(ValueError):
            router.submit(write(TXN_PREPARE_PREFIX + "nope", "v"))
        with pytest.raises(ValueError):
            router.submit_transaction({TXN_COMMIT_PREFIX + "nope": "v"})

    def test_single_shard_transaction_skips_2pc(self):
        simulator, cluster = build_sharded(pins=[("x1", "shard-0"), ("x2", "shard-0")])
        router = ShardRouter(cluster)
        done = []
        router.on_transaction_complete = lambda txid, outcome: done.append(outcome)
        txid = router.submit_transaction({"x1": "1", "x2": "2"})
        simulator.run_until(1.5)
        assert done == ["commit"]
        assert router.stats["control_writes"] == 0  # no markers on the fast path
        states = collect_txn_states(cluster, [txid])
        assert all(state.prepare is None for state in states[txid].values())

    def test_cross_shard_commit_reaches_all_participants(self):
        simulator, cluster = build_sharded(pins=PINS)
        router = ShardRouter(cluster)
        done = []
        router.on_transaction_complete = lambda txid, outcome: done.append(outcome)
        txid = router.submit_transaction({"x": "1", "y": "2"})
        simulator.run_until(2.0)
        assert done == ["commit"]
        states = collect_txn_states(cluster, [txid])
        assert states[txid]["shard-0"].decision == "commit"
        assert states[txid]["shard-1"].decision == "commit"
        assert states[txid]["shard-0"].data == {"x": "1"}
        assert states[txid]["shard-1"].data == {"y": "2"}
        ok, message = check_cross_shard_atomicity(states)
        assert ok, message

    def test_abort_before_decision_leaves_no_data(self):
        simulator, cluster = build_sharded(pins=PINS)
        router = ShardRouter(cluster)
        txid = router.submit_transaction({"x": "1", "y": "2"})
        router.abort(txid)
        simulator.run_until(2.0)
        states = collect_txn_states(cluster, [txid])
        assert {state.decision for state in states[txid].values() if state.decision} == {"abort"}
        assert states[txid]["shard-0"].data == {"x": None}
        assert states[txid]["shard-1"].data == {"y": None}
        ok, message = check_cross_shard_atomicity(states)
        assert ok, message
        assert router.stats["txns_aborted"] == 1

    def test_abort_after_decision_is_an_error(self):
        simulator, cluster = build_sharded(pins=PINS)
        router = ShardRouter(cluster)
        txid = router.submit_transaction({"x": "1", "y": "2"})
        simulator.run_until(2.0)
        with pytest.raises(ValueError):
            router.abort(txid)

    def test_coordinator_crash_then_recovery_presumes_abort(self):
        simulator, cluster = build_sharded(pins=PINS)
        router = ShardRouter(cluster)
        txid = router.submit_transaction({"x": "1", "y": "2"})
        router.crash()  # dies with prepares in flight, before any decision
        simulator.run_until(1.5)
        states = collect_txn_states(cluster, [txid])
        assert states[txid]["shard-0"].prepare is not None  # prepares survived
        assert all(state.decision is None for state in states[txid].values())

        recovered = []
        recovery_router = ShardRouter(cluster, name="recovery")
        recovery_router.recover(txid, on_done=lambda t, outcome: recovered.append(outcome))
        simulator.run_until(simulator.now + 3.0)
        assert recovered == ["abort"]
        states = collect_txn_states(cluster, [txid])
        assert states[txid]["shard-0"].decision == "abort"
        assert states[txid]["shard-1"].decision == "abort"
        assert states[txid]["shard-0"].data == {"x": None}
        ok, message = check_cross_shard_atomicity(states)
        assert ok, message

    def test_recovery_completes_a_partially_decided_commit(self):
        simulator, cluster = build_sharded(pins=PINS)
        router = ShardRouter(cluster)
        txid = router.submit_transaction({"x": "1", "y": "2"})
        router.crash()
        simulator.run_until(1.5)
        # Emulate the dying coordinator having logged its commit decision
        # (and shard-0's data write) at shard-0 only.
        node = cluster.intake_node("shard-0", txid)
        cluster.shards["shard-0"].submit(
            ClientRequest(
                client_id="t", op=RequestType.WRITE, key=TXN_COMMIT_PREFIX + txid, value="commit"
            ),
            node_id=node,
        )
        cluster.shards["shard-0"].submit(
            ClientRequest(client_id="t", op=RequestType.WRITE, key="x", value="1"), node_id=node
        )
        simulator.run_until(simulator.now + 1.5)

        recovered = []
        recovery_router = ShardRouter(cluster, name="recovery")
        recovery_router.recover(txid, on_done=lambda t, outcome: recovered.append(outcome))
        simulator.run_until(simulator.now + 3.0)
        assert recovered == ["commit"]
        states = collect_txn_states(cluster, [txid])
        assert states[txid]["shard-1"].decision == "commit"
        assert states[txid]["shard-1"].data == {"y": "2"}
        ok, message = check_cross_shard_atomicity(states)
        assert ok, message

    def test_abort_recovery_skips_participants_that_never_prepared(self):
        """No decision marker may materialize at a shard that never voted.

        If the coordinator died so early that only one participant's
        prepare committed, presumed-abort recovery must log the abort at
        that shard only — fabricating a marker at the never-prepared
        participant would itself violate atomicity property 3.
        """
        import json

        simulator, cluster = build_sharded(pins=PINS)
        txid = "dead-coordinator-t0"
        record = json.dumps(
            {"participants": ["shard-0", "shard-1"], "txid": txid, "writes": {"x": "1"}},
            sort_keys=True,
        )
        cluster.shards["shard-0"].submit(
            ClientRequest(
                client_id="t", op=RequestType.WRITE, key=TXN_PREPARE_PREFIX + txid, value=record
            ),
            node_id=cluster.intake_node("shard-0", txid),
        )
        simulator.run_until(1.0)

        recovered = []
        recovery_router = ShardRouter(cluster, name="recovery")
        recovery_router.recover(txid, on_done=lambda t, outcome: recovered.append(outcome))
        simulator.run_until(simulator.now + 3.0)
        assert recovered == ["abort"]
        states = collect_txn_states(cluster, [txid])
        assert states[txid]["shard-0"].decision == "abort"
        assert states[txid]["shard-1"].decision is None  # never voted, never decided
        ok, message = check_cross_shard_atomicity(states)
        assert ok, message

    def test_recovery_of_an_unknown_txn_is_a_noop(self):
        simulator, cluster = build_sharded()
        router = ShardRouter(cluster)
        recovered = []
        router.recover("never-started", on_done=lambda t, outcome: recovered.append(outcome))
        simulator.run_until(2.0)
        assert recovered == [None]

    def test_refused_read_is_not_an_absent_record(self):
        """A refusal carries ``value=None`` like a read of a missing key; the
        router must not take it for one."""
        simulator, cluster = build_sharded()
        router = ShardRouter(cluster)
        asked = []
        cluster.shards["shard-0"].submit = lambda request, node_id=None: asked.append(request)
        recovered = []
        router.recover("never-started", on_done=lambda t, outcome: recovered.append(outcome))
        assert len(asked) == 2
        for request in asked:
            router._on_reply("shard-0", ClientReply(
                request_id=request.request_id, client_id=request.client_id, op=request.op,
                key=request.key, value=None, committed_cycle=None, error=NOT_IN_VIEW,
            ))
        simulator.run_until(2.0)
        assert recovered == []


# ----------------------------------------------------------------------
# Atomicity checker (pure-function cases)
# ----------------------------------------------------------------------
def make_states(decision_a, decision_b, data_a=None, data_b=None):
    prepare_a = '{"participants": ["a", "b"], "txid": "t", "writes": {"ka": "va"}}'
    prepare_b = '{"participants": ["a", "b"], "txid": "t", "writes": {"kb": "vb"}}'
    return {
        "t": {
            "a": ShardTxnState(prepare=prepare_a, decision=decision_a, data=data_a or {}),
            "b": ShardTxnState(prepare=prepare_b, decision=decision_b, data=data_b or {}),
        }
    }


class TestAtomicityChecker:
    def test_commit_everywhere_with_data_is_atomic(self):
        ok, _ = check_cross_shard_atomicity(
            make_states("commit", "commit", {"ka": "va"}, {"kb": "vb"})
        )
        assert ok

    def test_partial_commit_is_caught(self):
        ok, message = check_cross_shard_atomicity(make_states("commit", None, {"ka": "va"}))
        assert not ok and "not at" in message

    def test_conflicting_decisions_are_caught(self):
        ok, message = check_cross_shard_atomicity(make_states("commit", "abort", {"ka": "va"}))
        assert not ok and "conflicting" in message

    def test_commit_with_missing_write_is_caught(self):
        ok, message = check_cross_shard_atomicity(
            make_states("commit", "commit", {"ka": "va"}, {"kb": None})
        )
        assert not ok and "missing" in message

    def test_aborted_txn_with_visible_write_is_caught(self):
        ok, message = check_cross_shard_atomicity(
            make_states("abort", "abort", {"ka": "va"}, {"kb": None})
        )
        assert not ok and "visible" in message

    def test_decision_without_prepare_is_caught(self):
        states = make_states(None, None)
        states["t"]["c"] = ShardTxnState(decision="commit")
        ok, message = check_cross_shard_atomicity(states)
        assert not ok and "without a prepare" in message

    def test_txn_marker_kind_classification(self):
        assert txn_marker_kind(TXN_PREPARE_PREFIX + "t1") == "prepare"
        assert txn_marker_kind(TXN_COMMIT_PREFIX + "t1") == "decision"
        assert txn_marker_kind("ordinary-key") is None


# ----------------------------------------------------------------------
# Workload integration and per-shard metrics
# ----------------------------------------------------------------------
class TestShardedWorkload:
    def test_mixed_workload_is_linearizable_and_atomic(self):
        simulator = Simulator(seed=21)
        topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=2)
        cluster = ShardedCluster.build(topology, 2, protocol="canopus", config=fast_config())
        metrics = ShardMetrics(cluster)
        router = ShardRouter(cluster)
        generator = WorkloadGenerator(
            topology,
            WorkloadConfig(
                client_processes=8,
                aggregate_rate_hz=800.0,
                write_ratio=0.5,
                key_count=300,
                multi_key_ratio=0.1,
                multi_key_span=3,
                seed=21,
            ),
            router=router,
        )
        collector = generator.build()
        cluster.start()
        generator.start()
        simulator.run_until(0.5)
        generator.stop()
        simulator.run_until(1.2)

        assert generator.total_completed() > 100
        assert generator.total_txns_sent() > 0
        assert router.stats["txns_committed"] == router.stats["txns_started"] > 0

        # Per-shard single-key histories are linearizable.
        for shard_id in cluster.shard_ids:
            history = collector.to_history(
                key_filter=lambda key, shard=shard_id: (
                    txn_marker_kind(key) is None and cluster.shard_of(key) == shard
                )
            )
            assert len(history) > 0
            ok, message = check_linearizable_history(history)
            assert ok, f"{shard_id}: {message}"

        # Every transaction is atomic at quiescence.
        states = collect_txn_states(cluster, router.transaction_ids())
        ok, message = check_cross_shard_atomicity(states)
        assert ok, message

        # Per-shard metrics account for the completed data ops.
        window = metrics.ops_in_window(0.0, simulator.now)
        assert sum(window.values()) >= generator.total_completed()
        summary = metrics.summary(0.0, simulator.now, router=router)
        assert summary["total_ops_in_window"] == sum(window.values())
        assert summary["router"]["txns_started"] == router.stats["txns_started"]

    def test_throughput_scales_with_shard_count(self):
        """Past one group's knee, two half-size groups commit more than it does.

        The offered rate is taken from the measured knee — twice the most one
        group sustains — not from a constant: a cheaper broadcast moves the
        knee, and at a fixed rate one group may simply keep up.
        """
        from dataclasses import replace

        from repro.bench.shard_bench import (
            ShardPointConfig,
            find_max_shard_throughput,
            run_shard_point,
        )

        base = ShardPointConfig(
            shard_count=1,
            nodes_per_rack=3,
            racks=2,
            client_processes=18,
            multi_key_ratio=0.02,
            measure_s=0.25,
            verify=False,
            seed=7,
        )
        knee, ladder = find_max_shard_throughput(base, rate_ladder=(80000.0, 120000.0, 160000.0))
        assert not knee.collapsed and ladder[-1].collapsed, [p.as_dict() for p in ladder]
        past_the_knee = replace(base, rate_hz=2 * knee.committed_ops_per_s)
        one = run_shard_point(past_the_knee)
        two = run_shard_point(replace(past_the_knee, shard_count=2))
        assert one.collapsed
        assert two.committed_ops_per_s > 1.5 * one.committed_ops_per_s, (one.as_dict(), two.as_dict())
