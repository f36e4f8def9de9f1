"""The comparisons the paper's evaluation draws (§8), checked on every run.

Each test measures only the series its assertion reads, at a small scale:
the single-datacenter claims (Figures 4 and 5) walk a two-rung ladder with
a 30 ms median threshold, the wide-area ones (Figures 6 and 7) run one
rung over the Table 1 latencies.  Absolute numbers differ from the paper;
who wins and how throughput scales are what is checked.

Every claim prints one line (``pytest -s``) and fails with the same line:
the measured values, their ratio against the claim's threshold (a claim
holds at >= 1, or > 1 for a strict one), and the rung each best point was
found at, since a best point on the ladder's top rung says the system did
not saturate and the comparison is a floor, not a maximum.  The last tests
check that line itself on made-up points, without a measurement.
"""

from __future__ import annotations

from functools import partial

import pytest

from conftest import Disagreement
from repro.bench.builders import make_multi_dc_topology, make_single_dc_topology
from repro.bench.runner import ExperimentProfile, RatePointResult, find_max_throughput, run_rate_point
from repro.canopus.config import CanopusConfig
from repro.epaxos.node import EPaxosConfig
from repro.metrics.collector import RunSummary
from repro.sim.engine import Simulator
from repro.sim.latencies import EC2_REGIONS, latency_s
from repro.sim.topology import build_multi_datacenter
from repro.zab.node import ZabConfig

SINGLE_DC_PROFILE = ExperimentProfile(
    warmup_s=0.08,
    measure_s=0.15,
    cooldown_s=0.05,
    client_processes=30,
    rate_ladder=(4000, 16000),
    latency_threshold_s=0.030,
    seed=11,
)

#: Wide-area completion times are bounded below by the Table 1 RTTs
#: (130-320 ms), so the window is longer and the threshold far looser.
MULTI_DC_PROFILE = ExperimentProfile(
    warmup_s=0.4,
    measure_s=0.5,
    cooldown_s=0.1,
    client_processes=24,
    rate_ladder=(3000,),
    latency_threshold_s=0.600,
    min_goodput_ratio=0.70,
    seed=11,
)


def canopus_single_dc_config() -> CanopusConfig:
    # Within a datacenter the paper runs one cycle at a time (pipelining
    # targets wide-area deployments, §7.1): a new cycle every 5 ms (§8.2).
    return CanopusConfig(lot_height=2, cycle_interval_s=0.005, pipelining=False)


def canopus_multi_dc_config() -> CanopusConfig:
    # §8.2: a new cycle every 5 ms or after 1000 requests, pipelining on.
    return CanopusConfig(
        lot_height=2,
        cycle_interval_s=0.005,
        max_batch_size=1000,
        pipelining=True,
        max_inflight_cycles=64,
    )


def epaxos_config(batch_ms: float, thrifty: bool = False) -> EPaxosConfig:
    # Thrifty mode (PreAccept to a fast quorum only) is off in the paper's
    # setup (§8.2); the single-datacenter comparison turns it on so EPaxos
    # runs at its best broadcast footprint.
    return EPaxosConfig(batch_duration_s=batch_ms / 1000.0, latency_probing=True, thrifty=thrifty)


def single_dc(node_count: int):
    return partial(make_single_dc_topology, nodes_per_rack=node_count // 3)


def three_dcs():
    return partial(make_multi_dc_topology, datacenters=3)


def rung(point: RatePointResult, profile: ExperimentProfile) -> str:
    ladder = profile.rate_ladder
    top = "top" if point.aggregate_rate_hz == ladder[-1] else "not the top"
    return f"{point.aggregate_rate_hz:g} Hz rung, {top} of {len(ladder)}"


def throughput(label: str, point: RatePointResult, profile: ExperimentProfile) -> str:
    return f"{label} {point.throughput_rps:.0f} ops/s ({rung(point, profile)})"


def check(claim: str, ratio: float, detail: str, strict: bool = False) -> None:
    """Print and assert one claim: it holds when ``ratio`` reaches 1."""
    line = f"{claim}: {detail}; ratio {ratio:.3f} against the threshold"
    print(line)
    assert (ratio > 1.0 if strict else ratio >= 1.0), line


def test_fig4a_canopus_scales_and_beats_epaxos_at_27_nodes():
    """Read-heavy Canopus at 27 nodes sustains at least EPaxos-2ms's
    throughput, and at least 80 % of its own throughput at 9 nodes."""
    profile = SINGLE_DC_PROFILE
    canopus_9, _ = find_max_throughput("canopus", single_dc(9), 0.2, profile, canopus_single_dc_config())
    canopus_27, _ = find_max_throughput("canopus", single_dc(27), 0.2, profile, canopus_single_dc_config())
    epaxos_27, _ = find_max_throughput(
        "epaxos", single_dc(27), 0.2, profile, epaxos_config(2.0, thrifty=True)
    )
    check(
        "Fig. 4(a) canopus >= 1.0 x epaxos-2ms at 27 nodes",
        canopus_27.throughput_rps / epaxos_27.throughput_rps,
        f"{throughput('canopus', canopus_27, profile)} vs {throughput('epaxos-2ms', epaxos_27, profile)}",
    )
    check(
        "Fig. 4(a) canopus at 27 nodes >= 0.8 x canopus at 9",
        canopus_27.throughput_rps / (0.8 * canopus_9.throughput_rps),
        f"{throughput('27 nodes', canopus_27, profile)} vs {throughput('9 nodes', canopus_9, profile)}",
    )


def test_fig4b_canopus_median_within_5ms_of_epaxos_5ms():
    """At ~70 % of each system's maximum throughput (9 nodes), Canopus's
    median completion time is below EPaxos-5ms's plus 5 ms: EPaxos holds
    every request for its batching window, Canopus a read for one cycle."""
    profile = SINGLE_DC_PROFILE
    medians = {}
    details = []
    for label, system, config in (
        ("canopus", "canopus", canopus_single_dc_config()),
        ("epaxos-5ms", "epaxos", epaxos_config(5.0, thrifty=True)),
    ):
        best, _ = find_max_throughput(system, single_dc(9), 0.2, profile, config)
        operating_rate = max(best.aggregate_rate_hz * 0.7, profile.rate_ladder[0])
        point = run_rate_point(
            system, single_dc(9), rate_hz=operating_rate, write_ratio=0.2, profile=profile, config=config
        )
        medians[label] = point.median_completion_ms
        details.append(
            f"{label} median {point.median_completion_ms:.3f} ms at {operating_rate:g} Hz "
            f"(max {best.throughput_rps:.0f} ops/s at the {rung(best, profile)})"
        )
    bound_ms = medians["epaxos-5ms"] + 5.0
    check(
        "Fig. 4(b) canopus median < epaxos-5ms median + 5 ms at 9 nodes",
        bound_ms / medians["canopus"],
        f"{details[0]} vs {details[1]}, bound {bound_ms:.3f} ms",
        strict=True,
    )


def test_fig5_zkcanopus_keeps_up_with_zookeeper_at_27_nodes():
    """ZKCanopus's best goodput at 27 nodes is at least 90 % of ZooKeeper's,
    whose single leader handles every write."""
    profile = SINGLE_DC_PROFILE
    best = {}
    for system, config in (
        ("zkcanopus", canopus_single_dc_config()),
        ("zookeeper", ZabConfig(follower_count=5)),
    ):
        _, points = find_max_throughput(system, single_dc(27), 0.2, profile, config)
        best[system] = max(points, key=lambda point: point.throughput_rps)
    check(
        "Fig. 5 zkcanopus >= 0.9 x zookeeper at 27 nodes",
        best["zkcanopus"].throughput_rps / (0.9 * best["zookeeper"].throughput_rps),
        f"{throughput('zkcanopus', best['zkcanopus'], profile)} vs "
        f"{throughput('zookeeper', best['zookeeper'], profile)}",
    )


@pytest.mark.xfail(
    strict=True,
    raises=Disagreement,
    reason="the EPaxos deployment ends with commit logs that are not prefixes of each other; "
    "see ROADMAP 'EPaxos reports a commit order no replica applied'",
)
def test_fig6_canopus_keeps_up_with_epaxos_across_3_datacenters():
    """Over the WAN, Canopus sustains at least 90 % of EPaxos's goodput:
    reads never cross it and proposals traverse each path once."""
    profile = MULTI_DC_PROFILE
    canopus, _ = find_max_throughput("canopus", three_dcs(), 0.2, profile, canopus_multi_dc_config())
    epaxos, _ = find_max_throughput("epaxos", three_dcs(), 0.2, profile, epaxos_config(5.0))
    check(
        "Fig. 6 canopus >= 0.9 x epaxos across 3 datacenters",
        canopus.throughput_rps / (0.9 * epaxos.throughput_rps),
        f"{throughput('canopus', canopus, profile)} vs {throughput('epaxos', epaxos, profile)}",
    )


def test_fig7_read_heavy_canopus_keeps_its_throughput():
    """Across 3 datacenters, Canopus at 1 % writes sustains at least 90 %
    of its throughput at 50 % writes: reads are answered locally."""
    profile = MULTI_DC_PROFILE
    read_heavy, _ = find_max_throughput("canopus", three_dcs(), 0.01, profile, canopus_multi_dc_config())
    write_heavy, _ = find_max_throughput("canopus", three_dcs(), 0.5, profile, canopus_multi_dc_config())
    check(
        "Fig. 7 canopus at 1 % writes >= 0.9 x canopus at 50 %",
        read_heavy.throughput_rps / (0.9 * write_heavy.throughput_rps),
        f"{throughput('1 %', read_heavy, profile)} vs {throughput('50 %', write_heavy, profile)}",
    )


def measure_pairwise_delivery():
    """One-way delivery time between the first hosts of every region pair."""
    simulator = Simulator(seed=2)
    topology = build_multi_datacenter(simulator, datacenter_count=len(EC2_REGIONS))
    arrivals = {}
    hosts = {dc.region: dc.server_hosts[0] for dc in topology.datacenters}
    for dst_region, dst_host in hosts.items():
        topology.network.hosts[dst_host].set_handler(
            lambda sender, payload: arrivals.__setitem__(payload, simulator.now)
        )
    sent_at = {}
    for src_region, src_host in hosts.items():
        for dst_region, dst_host in hosts.items():
            if src_region == dst_region:
                continue
            tag = (src_region, dst_region)
            sent_at[tag] = simulator.now
            topology.network.hosts[src_host].send(dst_host, tag, 16)
    simulator.run()
    return {tag: arrivals[tag] - sent_at[tag] for tag in sent_at}


def test_table1_delivery_follows_the_configured_wan_latencies():
    """Host-to-host delivery between regions takes the Table 1 latency plus
    at most 10 ms of switching and serialization."""
    deliveries = measure_pairwise_delivery()
    assert len(deliveries) == len(EC2_REGIONS) * (len(EC2_REGIONS) - 1)
    excess = {tag: measured - latency_s(*tag) for tag, measured in deliveries.items()}
    fastest = min(excess, key=excess.get)
    slowest = max(excess, key=excess.get)

    def detail(tag):
        return f"{'->'.join(tag)} took {deliveries[tag] * 1e3:.3f} ms for its {latency_s(*tag) * 1e3:g} ms"

    check(
        "Table 1 delivery >= configured latency",
        deliveries[fastest] / latency_s(*fastest),
        detail(fastest),
    )
    check(
        "Table 1 delivery <= configured latency + 10 ms",
        (latency_s(*slowest) + 0.010) / deliveries[slowest],
        detail(slowest),
    )


def made_up_point(rate_hz: float, throughput_rps: float) -> RatePointResult:
    summary = RunSummary(
        requests_submitted=100,
        requests_completed=100,
        duration_s=1.0,
        throughput_rps=throughput_rps,
        median_completion_s=0.002,
        p95_completion_s=0.002,
        p99_completion_s=0.002,
        read_median_s=0.002,
        write_median_s=0.002,
    )
    return RatePointResult("stub", rate_hz, 0.2, 9, summary)


def test_a_claim_holds_at_a_ratio_of_one_unless_it_is_strict():
    check("even", 1.0, "a tie")
    with pytest.raises(AssertionError):
        check("even, strictly", 1.0, "a tie", strict=True)


def test_a_failed_claim_reports_its_values_ratio_and_rungs():
    profile = SINGLE_DC_PROFILE
    winner, loser = made_up_point(16000, 15540), made_up_point(4000, 3990)
    with pytest.raises(AssertionError) as failure:
        check(
            "stub claim",
            loser.throughput_rps / winner.throughput_rps,
            f"{throughput('a', loser, profile)} vs {throughput('b', winner, profile)}",
        )
    assert str(failure.value).splitlines()[0] == (
        "stub claim: a 3990 ops/s (4000 Hz rung, not the top of 2) vs "
        "b 15540 ops/s (16000 Hz rung, top of 2); ratio 0.257 against the threshold"
    )
