#!/usr/bin/env python3
"""Quickstart: a six-node Canopus group reaching consensus on key-value writes.

Six Canopus nodes are arranged in two super-leaves (think: two racks).  We
submit writes to different nodes, let the consensus cycles run on the
deterministic simulator, and show that every node commits the same totally
ordered log — then read a value back, which Canopus serves locally after
linearizing it against the concurrent writes (§5 of the paper).

Run with:  python examples/quickstart.py
"""

from repro.canopus.config import CanopusConfig
from repro.canopus.messages import ClientRequest, RequestType
from repro.protocols import build_protocol
from repro.sim.engine import Simulator
from repro.sim.topology import build_single_datacenter
from repro.verify.agreement import check_agreement


def main() -> None:
    # 1. Build a small simulated datacenter: 2 racks x 3 servers.
    simulator = Simulator(seed=42)
    topology = build_single_datacenter(simulator, nodes_per_rack=3, racks=2)

    # 2. Build Canopus through the protocol registry; any registered
    #    protocol name ("epaxos", "zookeeper", "raft", ...) works here.
    replies = []
    config = CanopusConfig(broadcast_mode="raft", pipelining=False)
    protocol = build_protocol("canopus", topology, config=config, on_reply=replies.append)
    protocol.start()

    print("LOT overlay:", protocol.lot)
    for name, leaf in protocol.lot.super_leaves.items():
        print(f"  super-leaf {name}: members={leaf.members} parent vnode={leaf.parent_vnode}")

    # 3. Submit writes to different nodes, concurrently.
    nodes = list(protocol.nodes.values())
    for index, node in enumerate(nodes):
        request = ClientRequest(
            client_id=f"client-{index}",
            op=RequestType.WRITE,
            key=f"account-{index}",
            value=f"balance-{100 * index}",
        )
        node.submit(request)

    # 4. Run the simulator until the consensus cycles complete.
    simulator.run_until(1.0)

    # 5. Every node has committed the same totally ordered log.
    orders = protocol.committed_logs()
    ok, message = check_agreement(orders)
    print(f"\nAgreement across {len(nodes)} nodes: {ok} ({message})")
    reference = nodes[0].committed_requests()
    print("Committed order (identical on every node):")
    for request in reference:
        print(f"  cycle-ordered write {request.key} = {request.value}")

    # 6. Read a key back from a *different* node than the one that wrote it.
    read = ClientRequest(client_id="reader", op=RequestType.READ, key="account-3")
    nodes[0].submit(read)
    simulator.run_until(2.0)
    reply = next(r for r in replies if r.request_id == read.request_id)
    print(f"\nRead account-3 from node {reply.server_id}: {reply.value!r} "
          f"(linearized at cycle {reply.committed_cycle})")

    protocol.stop()
    print(f"\nWrite replies received: {sum(1 for r in replies if r.op is RequestType.WRITE)}")
    print(f"Aggregate protocol stats: cycles={protocol.stats()['cycles_committed']}, "
          f"messages={protocol.stats()['messages_sent']}")
    print("Done.")


if __name__ == "__main__":
    main()
