#!/usr/bin/env python3
"""Wide-area deployment: Canopus vs EPaxos across EC2 regions (Table 1).

This example reproduces a slice of the paper's multi-datacenter evaluation
(§8.2): three nodes in each of three regions (Ireland, California,
Virginia), clients in every region issuing a 20%-write workload, pipelined
consensus cycles every 5 ms.  It prints the throughput and median
completion time of Canopus and EPaxos side by side.

Run with:  python examples/multi_datacenter.py
"""

from functools import partial

from repro.bench.builders import make_multi_dc_topology
from repro.bench.runner import ExperimentProfile, run_rate_point
from repro.canopus.config import CanopusConfig
from repro.epaxos.node import EPaxosConfig
from repro.sim.latencies import EC2_LATENCIES_MS, regions_for_count


def main() -> None:
    regions = regions_for_count(3)
    print("Datacenters:", ", ".join(regions))
    print("Inter-datacenter latencies (ms):")
    for a in regions:
        row = "  ".join(f"{b}:{EC2_LATENCIES_MS[a][b]:6.1f}" for b in regions)
        print(f"  {a}: {row}")

    profile = ExperimentProfile(
        warmup_s=0.5,
        measure_s=0.8,
        cooldown_s=0.1,
        client_processes=30,
        rate_ladder=(4000,),
        latency_threshold_s=0.6,
        seed=3,
    )
    topology_factory = partial(make_multi_dc_topology, datacenters=3)

    canopus_config = CanopusConfig(
        cycle_interval_s=0.005,       # a new cycle every 5 ms (§8.2)
        max_batch_size=1000,          # or after 1000 requests
        pipelining=True,              # overlap cycles across the WAN (§7.1)
        max_inflight_cycles=64,
    )
    epaxos_config = EPaxosConfig(batch_duration_s=0.005, latency_probing=True, thrifty=False)

    print("\nDriving a 20%-write workload at 4000 requests/second ...")
    canopus = run_rate_point(
        "canopus", topology_factory, rate_hz=4000, write_ratio=0.2,
        profile=profile, config=canopus_config,
    )
    epaxos = run_rate_point(
        "epaxos", topology_factory, rate_hz=4000, write_ratio=0.2,
        profile=profile, config=epaxos_config,
    )

    print(f"\n{'system':10s} {'goodput (req/s)':>16s} {'median (ms)':>12s} {'p95 (ms)':>10s}")
    for point in (canopus, epaxos):
        summary = point.summary
        print(
            f"{point.system:10s} {summary.throughput_rps:16.0f} "
            f"{summary.median_completion_s * 1000:12.1f} {summary.p95_completion_s * 1000:10.1f}"
        )
    print(
        "\nCanopus reads never cross the WAN; its completion time is bounded by"
        "\nthe consensus-cycle length (the farthest inter-datacenter latency),"
        "\nwhile its goodput scales with the offered load."
    )


if __name__ == "__main__":
    main()
