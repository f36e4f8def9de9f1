"""Per-figure experiment definitions (§8 of the paper).

Each function regenerates the rows/series of one table or figure of the
paper's evaluation and returns plain dictionaries/lists so both the pytest
benchmarks and the examples can print them with
:func:`repro.bench.report.format_results`.

Absolute numbers differ from the paper (the substrate is a scaled
discrete-event simulator, not a 10 GbE cluster / EC2), but the comparisons
the paper draws — who wins, how throughput scales with node count and
write ratio, where the batching trade-off bites — are what these
experiments reproduce.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, List, Optional, Sequence

from repro.bench.builders import make_multi_dc_topology, make_single_dc_topology
from repro.bench.runner import ExperimentProfile, RatePointResult, find_max_throughput, run_rate_point
from repro.canopus.config import CanopusConfig
from repro.epaxos.node import EPaxosConfig
from repro.kvstore.persistence import StorageDevice
from repro.sim.latencies import EC2_REGIONS, latency_ms
from repro.zab.node import ZabConfig

__all__ = [
    "figure4a_single_dc_throughput",
    "figure4b_single_dc_completion_time",
    "figure5_zookeeper_comparison",
    "figure6_multi_dc",
    "figure7_write_ratio",
    "table1_latency_matrix",
    "storage_sensitivity",
    "ablation_lot_shape",
    "ablation_read_leases",
]


def _canopus_single_dc_config() -> CanopusConfig:
    # Within a single datacenter the paper runs one consensus cycle at a
    # time (pipelining targets wide-area deployments, §7.1): a new cycle
    # every 5 ms or after 1000 requests, whichever comes first (§8.2).
    return CanopusConfig(
        lot_height=2,
        cycle_interval_s=0.005,
        broadcast_mode="raft",
        pipelining=False,
    )


def _canopus_multi_dc_config() -> CanopusConfig:
    # §8.2: a new cycle every 5 ms or after 1000 requests, pipelining on.
    return CanopusConfig(
        lot_height=2,
        cycle_interval_s=0.005,
        max_batch_size=1000,
        broadcast_mode="raft",
        pipelining=True,
        max_inflight_cycles=64,
    )


def _epaxos_config(batch_ms: float, thrifty: bool = False) -> EPaxosConfig:
    return EPaxosConfig(batch_duration_s=batch_ms / 1000.0, latency_probing=True, thrifty=thrifty)


# ----------------------------------------------------------------------
# Figure 4(a): single-DC throughput while scaling nodes (9/15/21/27)
# ----------------------------------------------------------------------
def figure4a_single_dc_throughput(
    node_counts: Sequence[int] = (9, 15, 21, 27),
    profile: Optional[ExperimentProfile] = None,
) -> List[Dict[str, object]]:
    """Maximum throughput of Canopus (20/50/100% writes) vs EPaxos (5/2 ms)."""
    profile = profile or ExperimentProfile.quick()
    results: List[Dict[str, object]] = []
    for node_count in node_counts:
        nodes_per_rack = node_count // 3
        topology_factory = partial(make_single_dc_topology, nodes_per_rack=nodes_per_rack)
        for write_ratio in (0.2, 0.5, 1.0):
            best, _ = find_max_throughput(
                "canopus",
                topology_factory,
                write_ratio=write_ratio,
                profile=profile,
                config=_canopus_single_dc_config(),
            )
            results.append(_row("canopus", node_count, write_ratio, best, extra={"batch_ms": "-"}))
        for batch_ms in (5.0, 2.0):
            # Thrifty mode (Moraru et al., SOSP'13): PreAccept goes to a
            # fast quorum instead of all peers.  The paper's own setup
            # disables it (§8.2), but the single-DC scaling comparison is
            # fairer with EPaxos at its best broadcast footprint, and it
            # keeps the 27-node point from saturating on fan-out alone.
            best, _ = find_max_throughput(
                "epaxos",
                topology_factory,
                write_ratio=0.2,
                profile=profile,
                config=_epaxos_config(batch_ms, thrifty=True),
            )
            results.append(_row(f"epaxos-{batch_ms:g}ms", node_count, 0.2, best, extra={"batch_ms": batch_ms}))
    return results


# ----------------------------------------------------------------------
# Figure 4(b): single-DC median completion time at ~70% of max throughput
# ----------------------------------------------------------------------
def figure4b_single_dc_completion_time(
    node_counts: Sequence[int] = (9, 27),
    profile: Optional[ExperimentProfile] = None,
) -> List[Dict[str, object]]:
    """Median completion time at 70% of each system's maximum throughput."""
    profile = profile or ExperimentProfile.quick()
    results: List[Dict[str, object]] = []
    for node_count in node_counts:
        nodes_per_rack = node_count // 3
        topology_factory = partial(make_single_dc_topology, nodes_per_rack=nodes_per_rack)
        configs = [
            ("canopus", "canopus", 0.2, _canopus_single_dc_config()),
            ("epaxos-5ms", "epaxos", 0.2, _epaxos_config(5.0, thrifty=True)),
            ("epaxos-2ms", "epaxos", 0.2, _epaxos_config(2.0, thrifty=True)),
        ]
        for label, system, write_ratio, config in configs:
            best, _ = find_max_throughput(
                system, topology_factory, write_ratio=write_ratio, profile=profile, config=config
            )
            operating_rate = max(best.aggregate_rate_hz * 0.7, profile.rate_ladder[0])
            point = run_rate_point(
                system,
                topology_factory,
                rate_hz=operating_rate,
                write_ratio=write_ratio,
                profile=profile,
                config=config,
            )
            results.append(
                _row(label, node_count, write_ratio, point, extra={"operating_rate_hz": operating_rate})
            )
    return results


# ----------------------------------------------------------------------
# Figure 5: ZKCanopus vs ZooKeeper throughput-latency curves
# ----------------------------------------------------------------------
def figure5_zookeeper_comparison(
    node_counts: Sequence[int] = (9, 27),
    profile: Optional[ExperimentProfile] = None,
    write_ratio: float = 0.2,
) -> List[Dict[str, object]]:
    """Throughput vs median completion time for ZKCanopus and ZooKeeper."""
    profile = profile or ExperimentProfile.quick()
    results: List[Dict[str, object]] = []
    for node_count in node_counts:
        nodes_per_rack = node_count // 3
        topology_factory = partial(make_single_dc_topology, nodes_per_rack=nodes_per_rack)
        for system, config in (
            ("zkcanopus", _canopus_single_dc_config()),
            ("zookeeper", ZabConfig(follower_count=5)),
        ):
            _, points = find_max_throughput(
                system, topology_factory, write_ratio=write_ratio, profile=profile, config=config
            )
            for point in points:
                results.append(_row(system, node_count, write_ratio, point))
    return results


# ----------------------------------------------------------------------
# Figure 6: multi-datacenter deployment (3/5/7 DCs)
# ----------------------------------------------------------------------
def figure6_multi_dc(
    datacenter_counts: Sequence[int] = (3, 5, 7),
    profile: Optional[ExperimentProfile] = None,
    write_ratio: float = 0.2,
) -> List[Dict[str, object]]:
    """Throughput and median completion time across 3/5/7 datacenters."""
    profile = profile or ExperimentProfile.wan()
    results: List[Dict[str, object]] = []
    for dc_count in datacenter_counts:
        topology_factory = partial(make_multi_dc_topology, datacenters=dc_count)
        for system, config in (
            ("canopus", _canopus_multi_dc_config()),
            ("epaxos", _epaxos_config(5.0)),
        ):
            best, points = find_max_throughput(
                system, topology_factory, write_ratio=write_ratio, profile=profile, config=config
            )
            row = _row(system, dc_count * 3, write_ratio, best, extra={"datacenters": dc_count})
            results.append(row)
    return results


# ----------------------------------------------------------------------
# Figure 7: write-ratio sweep at 9 nodes / 3 datacenters
# ----------------------------------------------------------------------
def figure7_write_ratio(
    write_ratios: Sequence[float] = (0.01, 0.2, 0.5),
    profile: Optional[ExperimentProfile] = None,
) -> List[Dict[str, object]]:
    """Canopus at 1/20/50% writes vs EPaxos at 20% writes (3 DCs)."""
    profile = profile or ExperimentProfile.wan()
    topology_factory = partial(make_multi_dc_topology, datacenters=3)
    results: List[Dict[str, object]] = []
    for write_ratio in write_ratios:
        best, _ = find_max_throughput(
            "canopus",
            topology_factory,
            write_ratio=write_ratio,
            profile=profile,
            config=_canopus_multi_dc_config(),
        )
        results.append(_row("canopus", 9, write_ratio, best, extra={"datacenters": 3}))
    best, _ = find_max_throughput(
        "epaxos",
        topology_factory,
        write_ratio=0.2,
        profile=profile,
        config=_epaxos_config(5.0),
    )
    results.append(_row("epaxos", 9, 0.2, best, extra={"datacenters": 3}))
    return results


# ----------------------------------------------------------------------
# Table 1: inter-datacenter latencies
# ----------------------------------------------------------------------
def table1_latency_matrix() -> List[Dict[str, object]]:
    """The latency matrix itself, as the configuration the simulator uses."""
    rows = []
    for region_a in EC2_REGIONS:
        row: Dict[str, object] = {"region": region_a}
        for region_b in EC2_REGIONS:
            row[region_b] = latency_ms(region_a, region_b)
        rows.append(row)
    return rows


# ----------------------------------------------------------------------
# §8.1 storage sensitivity (in-memory filesystem vs SSD)
# ----------------------------------------------------------------------
def storage_sensitivity(
    profile: Optional[ExperimentProfile] = None,
    node_count: int = 9,
    write_ratio: float = 0.2,
) -> List[Dict[str, object]]:
    """ZooKeeper with memory-backed vs SSD-backed logs (throughput + median)."""
    profile = profile or ExperimentProfile.quick()
    nodes_per_rack = node_count // 3
    topology_factory = partial(make_single_dc_topology, nodes_per_rack=nodes_per_rack)
    results = []
    for device in (StorageDevice.MEMORY, StorageDevice.SSD):
        best, _ = find_max_throughput(
            "zookeeper",
            topology_factory,
            write_ratio=write_ratio,
            profile=profile,
            config=ZabConfig(follower_count=5, storage=device),
        )
        results.append(_row(f"zookeeper-{device.value}", node_count, write_ratio, best))
    return results


# ----------------------------------------------------------------------
# Ablations motivated by §9 (LOT shape) and §7.2 (read leases)
# ----------------------------------------------------------------------
def ablation_lot_shape(
    profile: Optional[ExperimentProfile] = None,
    node_count: int = 27,
    write_ratio: float = 0.2,
) -> List[Dict[str, object]]:
    """Height-2 vs height-3 LOT over the same 27 nodes (§9 discussion)."""
    profile = profile or ExperimentProfile.quick()
    nodes_per_rack = node_count // 3
    topology_factory = partial(make_single_dc_topology, nodes_per_rack=nodes_per_rack)
    results = []
    for height in (2, 3):
        config = _canopus_single_dc_config()
        config.lot_height = height
        best, _ = find_max_throughput(
            "canopus", topology_factory, write_ratio=write_ratio, profile=profile, config=config
        )
        results.append(_row(f"canopus-h{height}", node_count, write_ratio, best, extra={"lot_height": height}))
    return results


def ablation_read_leases(
    profile: Optional[ExperimentProfile] = None,
    node_count: int = 9,
    write_ratio: float = 0.05,
) -> List[Dict[str, object]]:
    """Read completion time with and without write leases (§7.2)."""
    profile = profile or ExperimentProfile.quick()
    nodes_per_rack = node_count // 3
    topology_factory = partial(make_single_dc_topology, nodes_per_rack=nodes_per_rack)
    results = []
    for leases in (False, True):
        config = _canopus_single_dc_config()
        config.write_leases = leases
        rate = profile.rate_ladder[min(1, len(profile.rate_ladder) - 1)]
        point = run_rate_point(
            "canopus",
            topology_factory,
            rate_hz=rate,
            write_ratio=write_ratio,
            profile=profile,
            config=config,
        )
        label = "canopus-leases" if leases else "canopus-delayed-reads"
        results.append(
            _row(
                label,
                node_count,
                write_ratio,
                point,
                extra={"read_median_ms": point.summary.read_median_s * 1000},
            )
        )
    return results


# ----------------------------------------------------------------------
def _row(
    system: str,
    node_count: int,
    write_ratio: float,
    point: RatePointResult,
    extra: Optional[Dict[str, object]] = None,
) -> Dict[str, object]:
    row: Dict[str, object] = {
        "system": system,
        "nodes": node_count,
        "write_ratio": write_ratio,
        "throughput_rps": point.throughput_rps,
        "median_completion_ms": point.median_completion_ms,
        "offered_rate_hz": point.aggregate_rate_hz,
    }
    if extra:
        row.update(extra)
    return row
