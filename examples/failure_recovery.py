#!/usr/bin/env python3
"""Failure handling: crash a node, keep committing, stall on a rack failure.

Canopus tolerates individual node crashes inside a super-leaf (the Raft
based reliable broadcast needs only a majority of the super-leaf), updates
the emulation table through the membership machinery of §4.6, and — by
design — *stalls* rather than misbehaves if an entire super-leaf (rack)
fails (§3, §6).  This example demonstrates all three behaviours.

Run with:  python examples/failure_recovery.py
"""

from repro.canopus.config import CanopusConfig
from repro.protocols import build_protocol
from repro.runtime.messages import ClientRequest, RequestType
from repro.sim.engine import Simulator
from repro.sim.topology import build_single_datacenter
from repro.verify.agreement import check_agreement


def submit_write(protocol, node_id, key, value):
    request = ClientRequest(client_id="ops", op=RequestType.WRITE, key=key, value=value)
    protocol.submit(request, node_id=node_id)
    return request


def committed_keys(node):
    return [request.key for request in node.committed_requests()]


def main() -> None:
    simulator = Simulator(seed=11)
    topology = build_single_datacenter(simulator, nodes_per_rack=3, racks=3)
    config = CanopusConfig(
        pipelining=False,
        heartbeat_interval_s=0.02,
        fetch_timeout_s=0.2,
    )
    protocol = build_protocol("canopus", topology, config=config)
    protocol.start()

    print("Phase 1: healthy cluster commits a write")
    submit_write(protocol, "n0-0", "phase-1", "all nodes alive")
    simulator.run_until(1.0)
    print("  committed on n2-2:", committed_keys(protocol.nodes["n2-2"]))

    print("\nPhase 2: crash one node (n1-2) — consensus continues without it")
    protocol.crash("n1-2")
    simulator.run_until(2.0)  # failure detector notices
    submit_write(protocol, "n0-0", "phase-2", "one node down")
    simulator.run_until(3.5)
    survivors = {nid: node for nid, node in protocol.nodes.items() if nid != "n1-2"}
    print("  committed on n1-0:", committed_keys(protocol.nodes["n1-0"]))
    print("  n1-2 still listed as live by its peers?",
          "n1-2" in protocol.nodes["n1-0"].live_members)
    ok, message = check_agreement({nid: node.committed_order() for nid, node in survivors.items()})
    print(f"  agreement among survivors: {ok} ({message})")

    print("\nPhase 3: crash the whole rack-2 super-leaf — consensus stalls safely")
    for node_id in ("n2-0", "n2-1", "n2-2"):
        protocol.crash(node_id)
    submit_write(protocol, "n0-0", "phase-3", "rack down")
    simulator.run_until(6.0)
    committed_after = committed_keys(protocol.nodes["n0-0"])
    print("  committed on n0-0:", committed_after)
    print("  phase-3 write committed?", "phase-3" in committed_after,
          "(expected False: the protocol stalls rather than risking divergence)")
    ok, message = check_agreement({
        nid: node.committed_order()
        for nid, node in protocol.nodes.items()
        if not nid.startswith("n2-")
    })
    print(f"  agreement still holds among live nodes: {ok}")
    print(f"  protocol.is_healthy() now reports: {protocol.is_healthy()} (crashed replicas)")

    protocol.stop()


if __name__ == "__main__":
    main()
