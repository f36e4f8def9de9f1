#!/usr/bin/env python3
"""Sharded KV store quickstart: four Canopus groups, one partitioned keyspace.

A single Canopus group totally orders *every* write on *every* replica —
that is its correctness contract, and its throughput ceiling.  This example
splits a 12-server datacenter into four independent Canopus shards behind a
consistent-hash router, shows single-key operations landing only on their
owning shard, then runs a cross-shard transaction through the two-phase
commit coordinator — including a coordinator crash and recovery from the
shards' replicated logs alone.

Run with:  python examples/sharded_kvstore.py
"""

from repro.bench.builders import make_single_dc_topology
from repro.runtime.messages import ClientRequest, RequestType
from repro.shard import ShardMetrics, ShardRouter, ShardedCluster
from repro.shard.router import collect_txn_states
from repro.sim.engine import Simulator
from repro.verify import check_cross_shard_atomicity


def write(key, value, client="demo"):
    return ClientRequest(client_id=client, op=RequestType.WRITE, key=key, value=value)


def read(key, client="demo"):
    return ClientRequest(client_id=client, op=RequestType.READ, key=key)


def main() -> None:
    # 1. One simulated datacenter, 12 servers in 3 racks — and four
    #    independent Canopus groups carved out of it.  Any registry
    #    protocol works per shard; protocol=("canopus", "raft", ...) mixes.
    simulator = Simulator(seed=42)
    topology = make_single_dc_topology(simulator, nodes_per_rack=4, racks=3)
    cluster = ShardedCluster.build(topology, shard_count=4, protocol="canopus")
    metrics = ShardMetrics(cluster)
    router = ShardRouter(cluster)
    cluster.start()

    print("Shard assignment (host -> consensus group):")
    for shard_id, hosts in cluster.assignment.items():
        print(f"  {shard_id}: {hosts}")

    # Pin three keys onto distinct shards up front, so the transaction in
    # step 3 demonstrably spans three consensus groups (consistent hashing
    # may well colocate three arbitrary keys on one shard — the pinning
    # hook exists precisely so tests and demos can force placement).
    for index in range(3):
        cluster.partitioner.pin(f"account-{index}", f"shard-{index}")

    # 2. Single-key writes route to their owning shard only.
    replies = []
    cluster.add_reply_listener(lambda shard, reply: replies.append((shard, reply)))
    accounts = [f"account-{index}" for index in range(8)]
    for index, key in enumerate(accounts):
        router.submit(write(key, f"balance-{100 * index}"))
    simulator.run_until(1.0)
    print("\nKey placement (consistent hashing; account-0..2 pinned):")
    for key in accounts:
        print(f"  {key} -> {cluster.shard_of(key)} via {cluster.target_for_key(key)}")

    # 3. A cross-shard transaction: all-or-nothing across consensus groups.
    #    Prepare and commit decisions are replicated writes in each
    #    participant shard's log, not coordinator memory.
    keys = ["account-0", "account-1", "account-2"]
    participants = sorted({cluster.shard_of(k) for k in keys})
    done = []
    router.on_transaction_complete = lambda txid, outcome: done.append((txid, outcome))
    txid = router.submit_transaction({k: "transferred" for k in keys}, client_id="bank")
    simulator.run_until(2.0)
    print(f"\nTransaction {txid} across {participants}: {done[-1][1]}")

    # 4. Coordinator crash: prepares land in the shards' logs, then the
    #    coordinator dies before deciding.  A fresh router recovers the
    #    outcome from the replicated markers alone (presumed abort here).
    txid2 = router.submit_transaction({k: "lost-update" for k in keys}, client_id="bank")
    router.crash()
    simulator.run_until(3.0)
    recovery = ShardRouter(cluster, name="recovery")
    outcomes = []
    recovery.recover(txid2, on_done=lambda t, outcome: outcomes.append(outcome))
    simulator.run_until(5.0)
    print(f"Coordinator crashed mid-transaction {txid2}; recovery decided: {outcomes[0]}")

    # 5. Verify atomicity from the shards' durable state, then read back.
    states = collect_txn_states(cluster, [txid, txid2])
    ok, message = check_cross_shard_atomicity(states)
    print(f"Cross-shard atomicity check: {ok} ({message})")

    check = read("account-0", client="reader")
    router.submit(check)
    simulator.run_until(simulator.now + 1.0)
    reply = next(r for _, r in replies if r.request_id == check.request_id)
    print(f"account-0 = {reply.value!r} (committed transfer visible, lost-update aborted)")

    summary = metrics.summary(0.0, simulator.now, router=router)
    print("\nPer-shard data ops:",
          {s: entry["ops_in_window"] for s, entry in summary["shards"].items()})
    print("Router:", summary["router"])
    cluster.stop()
    print("Done.")


if __name__ == "__main__":
    main()
