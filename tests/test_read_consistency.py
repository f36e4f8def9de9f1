"""The linearizability checker's stale-read canary, and its counterparts.

ZooKeeper deliberately answers a read from the local replica (the paper's
baseline), so it declares ``sequential`` reads.  A write that committed at
the leader is invisible to a follower until the leader's COMMIT reaches it,
one network hop later: a read served there in that window returns the old
value after the write was acknowledged, a real-time ordering violation the
checker must flag.  The same window on a protocol that declares
``linearizable`` reads must pass the checker.
"""

from __future__ import annotations

import pytest

from repro.bench.builders import make_single_dc_topology
from repro.protocols import build_protocol
from repro.runtime.messages import ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.verify import check_linearizable_history
from repro.verify.history import History

#: Finer than one network hop, so a read lands between the write's reply
#: and the next replica applying it.
STEP_S = 2e-5


def run_stale_window_scenario(name):
    """Write at the node that commits first, then read at another replica
    the moment the write's reply is out.

    Returns the value read, the checker's verdict on the two operations,
    and whether the reading replica still lacked the write when the read
    arrived (the window is real only then).
    """
    simulator = Simulator(seed=11)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3, racks=1)
    replies = []
    protocol = build_protocol(name, topology, on_reply=replies.append)
    protocol.start()
    writer = getattr(protocol, "leader_id", None) or protocol.node_ids()[0]
    reader = next(node_id for node_id in protocol.node_ids() if node_id != writer)

    write = ClientRequest(client_id="writer", op=RequestType.WRITE, key="k", value="new")
    protocol.submit(write, node_id=writer)
    for _ in range(100_000):
        if any(reply.request_id == write.request_id for reply in replies):
            break
        simulator.run_until(simulator.now + STEP_S)
    else:
        pytest.fail(f"{name}: write never completed")
    write_reply = next(reply for reply in replies if reply.request_id == write.request_id)
    reader_behind = protocol.stores[reader].read("k") is None

    simulator.run_until(simulator.now + 1e-6)
    read = ClientRequest(client_id="reader", op=RequestType.READ, key="k")
    protocol.submit(read, node_id=reader)
    simulator.run_until(simulator.now + 2.0)
    read_reply = next(reply for reply in replies if reply.request_id == read.request_id)

    history = History()
    history.add("writer", "write", "k", "new", write.submitted_at, write_reply.completed_at)
    history.add("reader", "read", "k", read_reply.value, read.submitted_at, read_reply.completed_at)
    ok, _ = check_linearizable_history(history)
    protocol.stop()
    return read_reply.value, ok, reader_behind


def test_zookeeper_local_reads_serve_a_stale_value_and_fail_the_checker():
    value, linearizable, reader_behind = run_stale_window_scenario("zookeeper")
    assert reader_behind, "the follower already applied the write: no window"
    assert value is None, "expected the lagging follower to serve the stale value"
    assert not linearizable, "the stale read must fail the linearizability checker"


@pytest.mark.parametrize("name", ["canopus", "zkcanopus", "epaxos"])
def test_a_linearizable_protocol_reads_the_write_in_the_same_window(name):
    value, linearizable, _ = run_stale_window_scenario(name)
    assert value == "new", f"{name} read {value!r} after the write was acknowledged"
    assert linearizable


def test_zookeeper_declares_sequential_reads_and_the_rest_linearizable():
    levels = {
        name: build_protocol(
            name, make_single_dc_topology(Simulator(seed=11), nodes_per_rack=3, racks=1)
        ).read_consistency()
        for name in ("canopus", "zkcanopus", "epaxos", "zookeeper")
    }
    assert levels == {
        "canopus": "linearizable",
        "zkcanopus": "linearizable",
        "epaxos": "linearizable",
        "zookeeper": "sequential",
    }
