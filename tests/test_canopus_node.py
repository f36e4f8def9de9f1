"""Core Canopus protocol tests: agreement, ordering, reads, cycles.

These tests exercise the full protocol stack (LOT, proposals, reliable
broadcast, representatives, commit) on the deterministic simulator.
"""

import pytest

from repro.bench.builders import build_system, make_single_dc_topology
from repro.canopus.messages import Proposal, ProposalRequest, RequestType
from repro.raft.messages import AppendEntries, AppendEntriesReply
from repro.sim.engine import Simulator
from repro.verify.agreement import check_agreement
from repro.workload.generator import WorkloadConfig, WorkloadGenerator
from tests.helpers import build_canopus_on_sim, committed_orders, fast_config, read, write


def run_27_nodes_at_40k():
    """27 nodes, Raft broadcast, the paper's read-heavy mix at 40 k req/s, 0.15 s."""
    simulator = Simulator(seed=7)
    topology = make_single_dc_topology(simulator, nodes_per_rack=9, racks=3)
    config = fast_config(broadcast_mode="raft", cycle_interval_s=0.005)
    system = build_system("canopus", topology, config=config)
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(
            client_processes=36, aggregate_rate_hz=40_000, write_ratio=0.2, key_count=10_000, seed=7
        ),
    )
    generator.build()
    system.start()
    generator.start()
    simulator.run_until(0.15)
    return simulator, topology, system


class TestSingleSuperLeaf:
    def test_one_write_commits_on_every_node(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=1)
        node = next(iter(cluster.nodes.values()))
        node.submit(write("k", "v"))
        sim.run_until(1.0)
        for member in cluster.nodes.values():
            assert [r.key for r in member.committed_requests()] == ["k"]

    def test_write_reply_sent_once_committed(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=1)
        node = next(iter(cluster.nodes.values()))
        request = write("k", "v")
        node.submit(request)
        sim.run_until(1.0)
        assert any(reply.request_id == request.request_id for reply in replies)
        reply = next(r for r in replies if r.request_id == request.request_id)
        assert reply.op is RequestType.WRITE
        assert reply.committed_cycle is not None

    def test_requests_from_same_node_keep_arrival_order(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=1)
        node = next(iter(cluster.nodes.values()))
        for i in range(5):
            node.submit(write(f"k{i}", str(i)))
        sim.run_until(1.0)
        committed_keys = [r.key for r in node.committed_requests()]
        assert committed_keys == [f"k{i}" for i in range(5)]


class TestMultiSuperLeafAgreement:
    def test_all_nodes_commit_identical_order(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        for index, node in enumerate(cluster.nodes.values()):
            node.submit(write(f"key-{index}", f"value-{index}"))
        sim.run_until(2.0)
        orders = committed_orders(cluster)
        lengths = {len(order) for order in orders.values()}
        assert lengths == {9}
        ok, message = check_agreement(orders)
        assert ok, message

    def test_agreement_with_raft_broadcast(self):
        sim, _, cluster, _ = build_canopus_on_sim(
            nodes_per_rack=3, racks=3, config=fast_config(broadcast_mode="raft")
        )
        for index, node in enumerate(cluster.nodes.values()):
            node.submit(write(f"key-{index}", f"value-{index}"))
        sim.run_until(2.0)
        orders = committed_orders(cluster)
        assert {len(order) for order in orders.values()} == {9}
        ok, message = check_agreement(orders)
        assert ok, message

    def test_multiple_cycles_preserve_total_order_prefix(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        nodes = list(cluster.nodes.values())
        nodes[0].submit(write("first", "1"))
        sim.run_until(1.0)
        nodes[5].submit(write("second", "2"))
        sim.run_until(2.0)
        for node in nodes:
            keys = [r.key for r in node.committed_requests()]
            assert keys == ["first", "second"]

    def test_agreement_under_concurrent_load(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        nodes = list(cluster.nodes.values())
        for round_index in range(4):
            for node_index, node in enumerate(nodes):
                node.submit(write(f"r{round_index}-n{node_index}", "x"))
            sim.run_until((round_index + 1) * 0.5)
        sim.run_until(4.0)
        orders = committed_orders(cluster)
        assert {len(order) for order in orders.values()} == {36}
        ok, message = check_agreement(orders)
        assert ok, message

    def test_throughput_stats_update(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = next(iter(cluster.nodes.values()))
        node.submit(write("k", "v"))
        sim.run_until(1.0)
        assert node.stats["writes_committed"] == 1
        assert node.stats["cycles_committed"] >= 1


class TestSelfSynchronization:
    def test_idle_super_leaves_join_the_cycle(self):
        """A cycle triggered on one super-leaf drags the idle ones along (§4.4)."""
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        first_node = next(iter(cluster.nodes.values()))
        first_node.submit(write("solo", "x"))
        sim.run_until(2.0)
        for node in cluster.nodes.values():
            assert node.last_committed_cycle >= 1
            assert [r.key for r in node.committed_requests()] == ["solo"]

    def test_cycles_start_in_sequence_never_skip(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        nodes = list(cluster.nodes.values())
        for i in range(3):
            nodes[i].submit(write(f"k{i}", "v"))
            sim.run_until((i + 1) * 0.4)
        sim.run_until(3.0)
        for node in nodes:
            committed_cycles = [cycle.cycle_id for cycle in node.commit_log]
            assert committed_cycles == sorted(committed_cycles)
            assert committed_cycles == list(range(1, len(committed_cycles) + 1))


class TestReads:
    def test_read_returns_previously_committed_value(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        nodes = list(cluster.nodes.values())
        nodes[0].submit(write("color", "blue"))
        sim.run_until(1.0)
        read_request = read("color")
        nodes[4].submit(read_request)
        sim.run_until(2.0)
        reply = next(r for r in replies if r.request_id == read_request.request_id)
        assert reply.value == "blue"

    def test_read_is_delayed_until_the_cycle_in_flight_commits(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = next(iter(cluster.nodes.values()))
        node.submit(write("other", "x"))
        assert node.last_started_cycle == 1 and node.last_committed_cycle == 0
        read_request = read("anything")
        node.submit(read_request)
        assert not any(r.request_id == read_request.request_id for r in replies)
        sim.run_until(2.0)
        (reply,) = [r for r in replies if r.request_id == read_request.request_id]
        assert reply.committed_cycle == 1 and node.last_started_cycle == 1

    def test_read_sees_write_submitted_before_it_on_same_node(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = next(iter(cluster.nodes.values()))
        node.submit(write("x", "42"))
        read_request = read("x")
        node.submit(read_request)
        sim.run_until(2.0)
        reply = next(r for r in replies if r.request_id == read_request.request_id)
        assert reply.value == "42"

    def test_reads_are_not_disseminated(self):
        """Read requests never appear in any node's commit log (§5)."""
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        nodes = list(cluster.nodes.values())
        nodes[0].submit(write("k", "v"))
        nodes[1].submit(read("k"))
        nodes[2].submit(read("k"))
        sim.run_until(2.0)
        for node in cluster.nodes.values():
            assert all(r.is_write() for r in node.committed_requests())

    def test_reads_served_stat_counts(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = next(iter(cluster.nodes.values()))
        node.submit(read("a"))
        node.submit(read("b"))
        sim.run_until(2.0)
        assert node.stats["reads_served"] == 2


class TestReadRelease:
    """§5 as implemented: a read is released by the first cycle that is
    guaranteed to order every write acknowledged before the read arrived."""

    @staticmethod
    def reply_to(replies, request):
        return next((r for r in replies if r.request_id == request.request_id), None)

    def test_read_after_a_remote_ack_is_released_by_the_cycle_in_flight(self):
        """Real-time order across racks.  ``n2-1`` hears everything 2 ms late,
        so when ``n0-0`` acknowledges the write ``n2-1`` is still in cycle 1."""
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        writer, reader = cluster.nodes["n0-0"], cluster.nodes["n2-1"]
        reader.runtime.set_handler(
            lambda sender, message: sim.schedule(0.002, lambda: reader.on_message(sender, message))
        )
        new_value = write("k", "new")
        writer.submit(new_value)
        reader.submit(write("other", "x"))  # the reader is in cycle 1 from the outset
        while self.reply_to(replies, new_value) is None:
            assert sim.loop.step()
        assert writer.last_committed_cycle == 1
        assert reader.last_started_cycle == 1 and reader.last_committed_cycle == 0
        request = read("k")
        reader.submit(request)
        assert self.reply_to(replies, request) is None  # n2-1 has not applied the write yet
        sim.run_until(0.1)
        reply = self.reply_to(replies, request)
        assert reply.value == "new"
        assert reply.committed_cycle == 1
        assert reply.completed_at == reader.commit_log[0].committed_at
        assert reader.last_started_cycle == 1  # no extra cycle was needed

    def test_read_behind_the_same_clients_unproposed_write_waits_for_it(self):
        """Per-client FIFO: write-then-read from one client, no waiting between."""
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n1-1"]
        node.submit(write("k", "old", client="someone-else"))
        assert node.last_started_cycle == 1  # in flight; what follows is queued
        own_write = write("k", "new", client="c1")
        own_read = read("k", client="c1")
        bystander_read = read("k", client="c2")
        node.submit(own_write)
        node.submit(own_read)
        node.submit(bystander_read)
        sim.run_until(0.1)
        assert self.reply_to(replies, own_write).committed_cycle == 2
        assert self.reply_to(replies, own_read).committed_cycle == 2
        assert self.reply_to(replies, own_read).value == "new"
        # Only that client pays for it: c2 has nothing queued here.
        assert self.reply_to(replies, bystander_read).committed_cycle == 1
        assert self.reply_to(replies, bystander_read).value == "old"

    def test_read_at_an_idle_node_is_answered_at_once(self):
        """The commit of ``last_started_cycle`` is behind the node: nothing to
        wait for, and no cycle is started on the read's account."""
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n0-1"]
        node.submit(write("k", "v"))
        sim.run_until(0.005)
        assert node.last_committed_cycle == node.last_started_cycle == 1
        request = read("k")
        node.submit(request)
        reply = self.reply_to(replies, request)
        assert reply.value == "v" and reply.completed_at == sim.now
        assert reply.committed_cycle == node.last_committed_cycle == 1
        sim.run_until(0.1)
        assert all(member.last_started_cycle == 1 for member in cluster.nodes.values())
        assert node.linearizer.reads_buffered == 0

    def test_idle_read_behind_the_same_clients_write_waits_for_the_tick_and_the_cycle(self):
        """Per-client FIFO at an idle node: the write is queued for the
        batching tick, so the read behind it is released by cycle c+1."""
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n1-1"]
        node.submit(write("k", "old", client="someone-else"))
        sim.run_until(0.005)
        assert node.last_committed_cycle == node.last_started_cycle == 1
        own_write = write("k", "new", client="c1")
        node.submit(own_write)
        assert node.last_started_cycle == 1  # inside the interval: waits for the tick
        own_read, bystander_read = read("k", client="c1"), read("k", client="c2")
        node.submit(own_read)
        node.submit(bystander_read)
        assert self.reply_to(replies, own_read) is None
        assert self.reply_to(replies, bystander_read).value == "old"  # c2 has nothing queued
        sim.run_until(0.1)
        assert self.reply_to(replies, own_write).committed_cycle == 2
        assert self.reply_to(replies, own_read).committed_cycle == 2
        assert self.reply_to(replies, own_read).value == "new"

    def test_idle_read_the_instant_a_remote_write_is_acknowledged_sees_it(self):
        """Real-time order across racks with no cycle to wait for.  ``n0-0``
        cannot have acknowledged the write without ``n2-1``'s round-1
        proposal, so ``n2-1`` has started that cycle: the read is released
        by it, at once if it has already committed there."""
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        writer, reader = cluster.nodes["n0-0"], cluster.nodes["n2-1"]
        writer.submit(write("k", "old"))
        sim.run_until(0.05)
        for delayed in (False, True):
            if delayed:  # the writer's rack hears everything 1 ms late: it acknowledges last
                for node_id in ("n0-0", "n0-1", "n0-2"):
                    node = cluster.nodes[node_id]
                    node.runtime.set_handler(
                        lambda sender, message, node=node: sim.schedule(
                            0.001, lambda: node.on_message(sender, message)
                        )
                    )
            new_value = write("k", f"new-{delayed}")
            writer.submit(new_value)
            while self.reply_to(replies, new_value) is None:
                assert sim.loop.step()
            cycle = self.reply_to(replies, new_value).committed_cycle
            assert reader.last_started_cycle == cycle
            idle = reader.last_committed_cycle == cycle
            assert idle == delayed
            request = read("k")
            reader.submit(request)
            assert (self.reply_to(replies, request) is not None) == idle
            sim.run_until(sim.now + 0.05)
            assert self.reply_to(replies, request).value == f"new-{delayed}"
            assert self.reply_to(replies, request).committed_cycle == cycle

    @pytest.mark.parametrize("path", ["at-once", "deferred", "no-write-lease"])
    def test_answered_reads_leave_nothing_behind(self, path):
        """Only writes are looked up at commit, so only writes are recorded."""
        config = fast_config(write_leases=path == "no-write-lease")
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node = cluster.nodes["n0-1"]
        if path != "at-once":
            node.submit(write("other", "x"))  # a cycle in flight
        for index in range(1000):
            node.submit(read(f"k{index}"))
        assert (node.linearizer.reads_buffered == 1000) == (path == "deferred")
        sim.run_until(0.1)
        assert node.stats["reads_served"] == 1000
        assert len(replies) == 1000 + (path != "at-once")
        assert node.request_senders == {}

    def test_write_lease_reads_bypass_the_cycle_in_flight(self):
        """§7.2 is untouched: no lease on the key, no waiting, cycle or not."""
        config = fast_config(write_leases=True)
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node = cluster.nodes["n0-1"]
        node.submit(write("hot", "v"))
        assert node.last_started_cycle == 1 and node.last_committed_cycle == 0
        request = read("cold")
        node.submit(request)
        assert self.reply_to(replies, request).committed_cycle == 0


class TestWriteLeases:
    def test_read_of_unleased_key_is_immediate(self):
        config = fast_config(write_leases=True)
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node = next(iter(cluster.nodes.values()))
        request = read("cold-key")
        node.submit(request)
        # No cycle needs to run: the reply is produced synchronously.
        assert any(r.request_id == request.request_id for r in replies)

    def test_read_of_recently_written_key_is_deferred(self):
        """With a cycle in flight, that is; an idle node has nothing to wait
        for, lease or no lease."""
        config = fast_config(write_leases=True, lease_cycles=5)
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node = next(iter(cluster.nodes.values()))
        node.submit(write("hot", "1"))
        sim.run_until(1.0)
        node.submit(write("other", "x"))
        assert node.last_started_cycle == 2 and node.last_committed_cycle == 1
        request, cold = read("hot"), read("cold")
        node.submit(request)
        node.submit(cold)
        immediately = any(r.request_id == request.request_id for r in replies)
        assert any(r.request_id == cold.request_id for r in replies)
        sim.run_until(3.0)
        eventually = any(r.request_id == request.request_id for r in replies)
        assert not immediately
        assert eventually
        idle = read("hot")
        node.submit(idle)
        assert any(r.request_id == idle.request_id for r in replies)

    def test_lease_expires_and_reads_become_immediate_again(self):
        config = fast_config(write_leases=True, lease_cycles=1)
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node = next(iter(cluster.nodes.values()))
        node.submit(write("hot", "1"))
        sim.run_until(1.0)
        # Run several more cycles so the lease lapses.
        for i in range(4):
            node.submit(write(f"other-{i}", "x"))
            sim.run_until(1.0 + (i + 1) * 0.5)
        request = read("hot")
        node.submit(request)
        assert any(r.request_id == request.request_id for r in replies)


class TestRepresentatives:
    def test_representatives_rotate_over_the_sorted_live_members(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n0-0"]
        members = sorted(node.super_leaf.members)
        assert node.representatives(0) == members[:2]
        assert node.representatives(1) == [members[2], members[0]]
        assert node.is_representative(1) and not node.is_representative(2)
        node.live_members.discard("n0-1")
        assert node.representatives(1) == ["n0-0", "n0-2"]

    def test_only_the_cycles_representatives_fetch(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n0-2"]
        for index in range(6):
            node.submit(write(f"k{index}", "v"))
            sim.run_until(0.1 * (index + 1))
        assert node.last_committed_cycle == 6
        for member in cluster.nodes.values():
            duty = sum(member.is_representative(cycle_id) for cycle_id in range(1, 7))
            assert duty == 4  # two of three members per cycle, in turn
            assert member.stats["proposal_requests_sent"] == duty

    def test_fetch_duty_keeps_server_cpu_balanced(self):
        """27 nodes, Raft broadcast, the paper's read-heavy mix at 40 k req/s:
        no server works much harder than the average one.  With a static
        plan one node per rack did all of it and sat at 2.2x the mean."""
        simulator, topology, system = run_27_nodes_at_40k()
        busy = [
            host.cpu_utilization(simulator.now)
            for name, host in topology.network.hosts.items()
            if name in system.protocol.node_ids()
        ]
        assert len(busy) == 27
        assert max(busy) <= 1.5 * (sum(busy) / len(busy))
        stats = system.protocol.stats()
        assert stats["fetch_retries"] == 0
        # The same work, spread: six proposal-requests per cycle, as before.
        cycles = stats["cycles_committed"] // 27
        assert cycles > 20 and abs(stats["proposal_requests_sent"] - 6 * cycles) <= 6

    def test_pipelined_cycles_commit_in_order(self):
        config = fast_config(pipelining=True, cycle_interval_s=0.02, max_inflight_cycles=4)
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        nodes = list(cluster.nodes.values())
        for burst in range(5):
            for node in nodes[:3]:
                node.submit(write(f"b{burst}-{node.node_id}", "v"))
            sim.run_until(0.1 * (burst + 1))
        sim.run_until(3.0)
        orders = committed_orders(cluster)
        ok, message = check_agreement(orders)
        assert ok, message
        for node in nodes:
            cycles = [cycle.cycle_id for cycle in node.commit_log]
            assert cycles == sorted(cycles)


class TestEarlyFetch:
    """Proposal-requests leave a round early and synchronise whoever they reach."""

    def test_request_for_an_unstarted_cycle_starts_it_and_is_buffered(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n1-0"]
        vnode = node.parent_vnode
        node.on_message("n0-0", ProposalRequest(cycle_id=1, vnode_id=vnode, requester="n0-0"))
        assert node.last_started_cycle == 1
        assert node.cycles[1].buffered_requests == {vnode: ["n0-0"]}
        assert node.stats["proposal_requests_served"] == 0
        while node.cycles[1].current_round == 1:
            assert sim.loop.step()
        # Round 1 just completed: the state exists and went to the requester.
        assert node.cycles[1].has_vnode_state(vnode)
        assert node.cycles[1].buffered_requests == {}
        assert node.stats["proposal_requests_served"] == 1

    def test_requests_are_sent_at_cycle_start_and_never_repeated(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n0-2"]
        node.submit(write("k", "v"))
        # Cycle 1's representatives of rack 0 are n0-2 and n0-0; n0-2 has
        # asked before anything else happened.
        assert node.cycles[1].current_round == 1
        assert node.stats["proposal_requests_sent"] == 1
        for index in range(5):
            sim.run_until(0.1 * (index + 1))
            node.submit(write(f"k{index}", "v"))
        sim.run_until(1.0)
        nodes = cluster.nodes.values()
        assert all(member.last_committed_cycle == 6 for member in nodes)
        # Two remote vnodes per super-leaf, three super-leaves, six cycles.
        assert sum(member.stats["proposal_requests_sent"] for member in nodes) == 6 * 6
        assert sum(member.stats["fetch_retries"] for member in nodes) == 0

    def test_super_leaf_starts_a_cycle_within_a_hop_of_its_first_member(self):
        """27 nodes over Raft broadcast at 40 k req/s.  Before first-sight
        synchronisation a third of each super-leaf started 0.5-0.66 ms late
        in every cycle: delivery is three hops behind the first start."""
        simulator, topology, system = run_27_nodes_at_40k()
        nodes = system.protocol.nodes
        cycles = range(5, min(node.last_committed_cycle for node in nodes.values()) + 1)
        assert len(cycles) > 20
        lags = []
        for cycle_id in cycles:
            for rack in range(3):
                starts = sorted(
                    node.cycles[cycle_id].started_at
                    for node_id, node in nodes.items()
                    if node_id.startswith(f"n{rack}-")
                )
                lags.extend(start - starts[0] for start in starts[1:])
        lags.sort()
        # A loaded hop is 156 us at the median and about 400 us at p99; the
        # late third used to sit above that on every cycle.
        assert lags[len(lags) * 9 // 10] <= 0.0003
        assert lags[len(lags) * 99 // 100] <= 0.0004


class TestMessageBudget:
    """Agreement is paid for only by round-1 proposals that carry something."""

    def test_one_27_node_cycle_by_message_class(self):
        config = fast_config(broadcast_mode="raft")
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=9, racks=3, config=config)
        sim.run_until(0.005)  # the 27 broadcast groups' initial heartbeat rounds are over
        wire = []
        for node in cluster.nodes.values():

            def handler(sender, message, node=node):
                wire.append(message)
                node.on_message(sender, message)

            node.runtime.set_handler(handler)
        writers = [f"n{rack}-{index}" for rack in range(3) for index in range(5)]
        for node_id in writers:
            cluster.nodes[node_id].submit(write(f"from-{node_id}", "v"))
        sim.run_until(0.015)  # before any heartbeat, Canopus' (20 ms) or Raft's (100 ms)
        assert all(node.last_committed_cycle == 1 for node in cluster.nodes.values())
        assert all(len(node.committed_requests()) == 15 for node in cluster.nodes.values())

        def copies(wanted):
            return sum(
                isinstance(m, AppendEntries) and bool(m.entries) and wanted(m.entries[0].command)
                for m in wire
            )

        peers = 8
        assert copies(lambda p: p.round_number == 1 and not p.is_void()) == 15 * peers
        assert sum(isinstance(m, AppendEntriesReply) for m in wire) == 15 * peers
        assert sum(isinstance(m, AppendEntries) and not m.entries for m in wire) == 15 * peers
        # Four void proposers a rack and two fetched states: one copy per peer.
        assert copies(lambda p: p.round_number == 1 and p.is_void()) == 12 * peers
        assert copies(lambda p: p.round_number >= 2) == 6 * peers
        assert sum(isinstance(m, ProposalRequest) for m in wire) == 6
        # 27 + 6 broadcasts at 3(n-1) each would be 792.
        assert len(wire) == 3 * 15 * peers + 12 * peers + 6 * peers + 6 + 6 == 516

    def test_entries_that_commit_later_deliver_nothing_a_second_time(self):
        """An unacknowledged entry commits with its group's next heartbeat,
        long after its cycle: that must not re-create a pruned cycle."""
        config = fast_config(broadcast_mode="raft", max_inflight_cycles=1)
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        for index in range(8):
            cluster.nodes["n1-1"].submit(write(f"k{index}", "v"))
            sim.run_until(0.02 * (index + 1))
        delivered = {node_id: node.broadcast.payloads_delivered for node_id, node in cluster.nodes.items()}
        sim.run_until(0.5)  # several Raft heartbeats: every entry has committed everywhere
        for node_id, node in cluster.nodes.items():
            assert node.last_committed_cycle == 8
            assert sorted(node.cycles) == [5, 6, 7, 8]  # 4 x max_inflight_cycles are kept
            assert node.broadcast.payloads_delivered == delivered[node_id]
            for group in node.broadcast.groups.values():
                assert group.commit_index == group.last_applied == group.log.last_index > 0
        # Nor must a copy sent again after a peer's failure (the sender may
        # keep a cycle one commit longer than the receiver does).
        node = cluster.nodes["n0-0"]
        node._on_broadcast_delivery("n0-1", Proposal(4, 2, "1.2", "n1-0", 7))
        assert sorted(node.cycles) == [5, 6, 7, 8]


class TestCycleBatching:
    """§8.2: a new cycle every ``cycle_interval_s`` or once the batch is full."""

    INTERVAL_S = 0.01  # fast_config's cycle_interval_s

    @staticmethod
    def steady_writes(sim, cluster, duration_s, every_s=0.0005):
        nodes = list(cluster.nodes.values())
        for index in range(int(duration_s / every_s)):
            sim.schedule(
                index * every_s,
                lambda index=index: nodes[index % len(nodes)].submit(write(f"k{index}", "v")),
            )
        sim.run_until(duration_s)

    def test_steady_load_starts_one_cycle_per_interval(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        self.steady_writes(sim, cluster, duration_s=0.5)
        for node in cluster.nodes.values():
            assert 0.5 / self.INTERVAL_S - 2 <= node.last_started_cycle <= 0.5 / self.INTERVAL_S + 2

    def test_idle_node_starts_a_cycle_immediately(self):
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = cluster.nodes["n1-1"]
        node.submit(write("first", "v"))
        assert node.last_started_cycle == 1
        sim.run_until(1.0)
        node.submit(write("after-idling", "v"))
        assert node.last_started_cycle == 2
        node.submit(write("second", "v"))
        assert node.last_started_cycle == 2  # cycle 2 still running
        sim.run_until(1.0 + self.INTERVAL_S / 2)
        assert node.last_committed_cycle == 2
        node.submit(read("first"))  # answered from committed state: prompts nothing
        sim.run_until(1.0 + self.INTERVAL_S + 0.001)
        assert node.last_started_cycle == 3  # the queued write waited for the clock ...
        assert node.cycles[3].started_at <= 1.0 + self.INTERVAL_S + 1e-9  # ... not a moment longer

    def test_full_batch_and_self_synchronisation_bypass_the_wait(self):
        config = fast_config(max_batch_size=3)
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node = cluster.nodes["n2-0"]
        node.submit(write("k0", "v"))
        sim.run_until(0.003)
        assert all(member.last_committed_cycle == 1 for member in cluster.nodes.values())
        node.submit(write("k1", "v"))
        node.submit(write("k2", "v"))
        assert node.last_started_cycle == 1  # inside the interval, batch not full
        node.submit(write("k3", "v"))
        assert node.last_started_cycle == 2  # batch full: at once
        # Every other node is inside its own interval too, and follows the
        # first message of cycle 2 rather than its clock.
        sim.run_until(0.006)
        assert all(member.last_committed_cycle == 2 for member in cluster.nodes.values())

    def test_pipelined_mode_is_clocked_as_before(self):
        config = fast_config(pipelining=True)
        sim, _, cluster, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        self.steady_writes(sim, cluster, duration_s=0.2)
        # An idle pipelined node starts a cycle on the request itself, so
        # sub-millisecond cycles run back to back here.
        for node in cluster.nodes.values():
            assert node.last_started_cycle > 4 * 0.2 / self.INTERVAL_S
