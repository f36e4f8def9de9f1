#!/usr/bin/env python3
"""ZKCanopus: a coordination store replicated by Canopus.

The paper integrates Canopus into ZooKeeper by replacing Zab with Canopus
("ZKCanopus").  This example builds ``zkcanopus`` on a nine-node group and
exercises a small coordination workload — configuration keys written at
different replicas, and a read served by whichever replica the client is
attached to — then shows every replica's ``repro.kvstore`` store holds the
same keys and values.

Run with:  python examples/zk_kvstore.py
"""

from repro.bench.builders import build_system, make_single_dc_topology
from repro.canopus.config import CanopusConfig
from repro.runtime.messages import ClientRequest, RequestType
from repro.sim.engine import Simulator


def main() -> None:
    simulator = Simulator(seed=7)
    topology = make_single_dc_topology(simulator, nodes_per_rack=3)
    system = build_system(
        "zkcanopus",
        topology,
        config=CanopusConfig(pipelining=False),
    )
    replies = []
    system.protocol.set_on_reply(replies.append)
    system.start()

    nodes = list(system.protocol.nodes.values())

    # Writes arrive at different replicas, as they would from different
    # application servers; Canopus orders them into one log.
    configuration = {
        "service/shards": "16",
        "service/leader": "app-server-3",
        "service/feature-flags": "canary",
        "users/alice": "admin",
        "users/bob": "reader",
    }
    for index, (key, value) in enumerate(configuration.items()):
        request = ClientRequest(
            client_id=f"app-{index}", op=RequestType.WRITE, key=key, value=value
        )
        nodes[index % len(nodes)].submit(request)
    simulator.run_until(1.0)

    # Reads can go to any replica (here: the last node) and are linearized
    # against the writes above without being disseminated.
    read = ClientRequest(client_id="dashboard", op=RequestType.READ, key="service/leader")
    nodes[-1].submit(read)
    simulator.run_until(2.0)
    reply = next(r for r in replies if r.request_id == read.request_id)
    print(f"dashboard read service/leader from {reply.server_id}: {reply.value!r}")

    # Every replica's store is identical.
    snapshots = [store.snapshot() for store in system.protocol.stores.values()]
    identical = all(snapshot == snapshots[0] for snapshot in snapshots)
    print(f"replica stores identical across {len(snapshots)} nodes: {identical}")
    print("keys on one replica:")
    for key, value in sorted(snapshots[0].items()):
        print(f"  {key} = {value!r}")

    commits = nodes[0].stats["cycles_committed"]
    print(f"consensus cycles committed: {commits}")
    system.stop()


if __name__ == "__main__":
    main()
