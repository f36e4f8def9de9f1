"""End-to-end linearizability and cross-system integration checks.

These tests drive full systems (Canopus, ZKCanopus, EPaxos, ZooKeeper)
through the simulator with concurrent clients and check the externally
observable history with the verification tools — the properties §6 claims.
"""


from repro.canopus.messages import ClientRequest, RequestType
from repro.verify.agreement import check_agreement, check_fifo_client_order
from repro.verify.history import History
from repro.verify.linearizability import check_linearizable_history
from tests.helpers import build_canopus_on_sim, committed_orders, fast_config, read, write


def drive_requests(sim, cluster, replies, schedule):
    """Submit requests per ``schedule`` = [(time, node_id, request)] and
    return a History built from the observed replies."""
    submit_times = {}
    for at, node_id, request in schedule:
        def fire(node_id=node_id, request=request):
            submit_times[request.request_id] = sim.now
            request.submitted_at = sim.now
            cluster.nodes[node_id].submit(request)
        sim.loop.schedule_at(at, fire)
    sim.run_until(max(at for at, _, _ in schedule) + 3.0)
    history = History()
    for reply in replies:
        request_id = reply.request_id
        if request_id not in submit_times:
            continue
        history.add(
            client_id=reply.client_id,
            kind="write" if reply.op is RequestType.WRITE else "read",
            key=reply.key,
            value=reply.value,
            invoked_at=submit_times[request_id],
            completed_at=reply.completed_at,
        )
    return history


class TestCanopusLinearizability:
    def test_concurrent_writers_and_readers_yield_linearizable_history(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node_ids = list(cluster.nodes.keys())
        schedule = []
        time = 0.01
        for round_index in range(3):
            for writer_index in range(3):
                node = node_ids[(round_index * 3 + writer_index) % len(node_ids)]
                schedule.append((time, node, write("shared", f"v{round_index}-{writer_index}", client=f"w{writer_index}")))
                time += 0.013
            for reader_index in range(3):
                node = node_ids[(round_index + reader_index * 2) % len(node_ids)]
                schedule.append((time, node, read("shared", client=f"r{reader_index}")))
                time += 0.007
        history = drive_requests(sim, cluster, replies, schedule)
        assert len(history) == len(schedule)
        ok, message = check_linearizable_history(history)
        assert ok, message

    def test_fifo_order_per_client(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node = list(cluster.nodes.keys())[0]
        schedule = []
        time = 0.01
        for i in range(6):
            schedule.append((time, node, write(f"key", f"v{i}", client="single-client")))
            time += 0.004
            schedule.append((time, node, read("key", client="single-client")))
            time += 0.004
        history = drive_requests(sim, cluster, replies, schedule)
        ok, message = check_fifo_client_order(history)
        assert ok, message
        ok, message = check_linearizable_history(history)
        assert ok, message

    def test_commit_logs_agree_after_concurrent_load(self):
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3)
        node_ids = list(cluster.nodes.keys())
        schedule = []
        time = 0.01
        for i in range(30):
            schedule.append((time, node_ids[i % len(node_ids)], write(f"k{i % 5}", f"v{i}", client=f"c{i % 4}")))
            time += 0.003
        drive_requests(sim, cluster, replies, schedule)
        ok, message = check_agreement(committed_orders(cluster))
        assert ok, message

    def test_write_lease_optimization_preserves_linearizability(self):
        config = fast_config(write_leases=True, lease_cycles=3)
        sim, _, cluster, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        node_ids = list(cluster.nodes.keys())
        schedule = []
        time = 0.01
        for i in range(4):
            schedule.append((time, node_ids[i % 9], write("hot", f"v{i}", client=f"w{i}")))
            time += 0.02
            schedule.append((time, node_ids[(i + 3) % 9], read("hot", client=f"r{i}")))
            time += 0.01
            schedule.append((time, node_ids[(i + 5) % 9], read("cold", client=f"rc{i}")))
            time += 0.01
        history = drive_requests(sim, cluster, replies, schedule)
        ok, message = check_linearizable_history(history)
        assert ok, message


class TestCrossSystemSanity:
    """All four systems answer the same tiny workload correctly."""

    def test_value_visibility_across_systems(self):
        from repro.bench.builders import build_system, make_single_dc_topology
        from repro.sim.engine import Simulator

        for system in ("canopus", "zkcanopus", "epaxos", "zookeeper"):
            sim = Simulator(seed=23)
            topo = make_single_dc_topology(sim, nodes_per_rack=3)
            replies = []
            sut = build_system(system, topo)
            # Attach a reply sink on every node.
            for node in sut.cluster.nodes.values():
                node.on_reply = replies.append
            sut.start()
            nodes = list(sut.cluster.nodes.values())
            write_request = ClientRequest(client_id="w", op=RequestType.WRITE, key="x", value="7")
            nodes[0].submit(write_request)
            sim.run_until(1.0)
            read_request = ClientRequest(client_id="r", op=RequestType.READ, key="x")
            nodes[4].submit(read_request)
            sim.run_until(2.5)
            sut.stop()
            reply = next((r for r in replies if r.request_id == read_request.request_id), None)
            assert reply is not None, f"{system}: read never answered"
            assert reply.value == "7", f"{system}: read returned {reply.value!r}"
