"""Running workloads against a system-under-test and measuring them.

The runner follows the paper's methodology (§8.1 "Performance metrics"):

* drive the system with an open-loop Poisson workload at a given aggregate
  rate,
* discard a warm-up and cool-down window and summarize the steady state,
* to find the maximum throughput, increase the rate until the median
  request completion time exceeds a threshold (the paper uses 10 ms; the
  scaled simulator uses a configurable equivalent) and report the last
  rate point before that,
* report the median completion time at roughly 70% of the maximum
  throughput as the representative operating point.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import time
import tracemalloc
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.builders import SystemUnderTest, build_system, make_single_dc_topology
from repro.metrics.collector import RunSummary
from repro.sim.engine import Simulator
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

__all__ = [
    "ExperimentProfile",
    "RatePointResult",
    "run_rate_point",
    "find_max_throughput",
    "PerfPoint",
    "PERF_POINTS",
    "run_perf_tracking",
    "update_perf_report",
]


@dataclass
class ExperimentProfile:
    """How long / how hard to run each measurement.

    The ``quick`` profile is what the pytest benchmarks use; ``full`` is
    the publication-length run.
    """

    warmup_s: float = 0.15
    measure_s: float = 0.5
    cooldown_s: float = 0.05
    client_processes: int = 60
    #: Rate ladder (requests/second) used by the max-throughput search.
    rate_ladder: Sequence[float] = (3000, 8000, 16000, 28000, 40000)
    #: Median-completion-time threshold that ends the search (seconds).
    latency_threshold_s: float = 0.030
    #: A rate point is also considered saturated when fewer than this
    #: fraction of the requests submitted in the window complete in it
    #: (open-loop goodput collapse, e.g. a Zab leader's write queue).
    min_goodput_ratio: float = 0.85
    seed: int = 7

    @classmethod
    def quick(cls) -> "ExperimentProfile":
        return cls(
            warmup_s=0.1,
            measure_s=0.3,
            cooldown_s=0.05,
            client_processes=36,
            rate_ladder=(3000, 10000, 24000),
            latency_threshold_s=0.030,
        )

    @classmethod
    def wan(cls) -> "ExperimentProfile":
        """Profile for the multi-datacenter experiments (Figures 6 and 7).

        Wide-area completion times are bounded below by the Table 1 RTTs
        (130–320 ms), so the measurement window is longer and the latency
        threshold is set relative to the base WAN latency (the paper marks
        the point where latency reaches 1.5x the base latency).
        """
        return cls(
            warmup_s=0.7,
            measure_s=1.2,
            cooldown_s=0.1,
            client_processes=60,
            rate_ladder=(2000, 6000, 12000, 20000),
            latency_threshold_s=0.600,
            min_goodput_ratio=0.80,
        )

    @classmethod
    def full(cls) -> "ExperimentProfile":
        return cls(
            warmup_s=0.25,
            measure_s=0.8,
            cooldown_s=0.1,
            client_processes=90,
            rate_ladder=(3000, 6000, 12000, 20000, 28000, 40000),
            latency_threshold_s=0.030,
        )


@dataclass
class RatePointResult:
    """Result of one workload rate point against one system."""

    system: str
    aggregate_rate_hz: float
    write_ratio: float
    node_count: int
    summary: RunSummary

    @property
    def throughput_rps(self) -> float:
        return self.summary.throughput_rps

    @property
    def median_completion_ms(self) -> float:
        return self.summary.median_completion_s * 1000

    def as_dict(self) -> Dict[str, float]:
        data = {
            "system": self.system,
            "offered_rate_hz": self.aggregate_rate_hz,
            "write_ratio": self.write_ratio,
            "node_count": self.node_count,
        }
        data.update(self.summary.as_dict())
        return data


TopologyFactory = Callable[[Simulator], "object"]


def run_rate_point(
    system: str,
    topology_factory: TopologyFactory,
    rate_hz: float,
    write_ratio: float,
    profile: Optional[ExperimentProfile] = None,
    config: Any = None,
    canopus_config: Any = None,
    epaxos_config: Any = None,
    zab_config: Any = None,
    multi_dc: bool = False,
) -> RatePointResult:
    """Build a fresh simulator + system + workload and measure one rate point.

    ``config`` is the protocol's own configuration object; the historical
    per-protocol keyword arguments are still accepted and forwarded to
    :func:`repro.bench.builders.build_system`, which validates them against
    the registry.
    """
    profile = profile or ExperimentProfile.quick()
    simulator, sut, summary = _execute_rate_point(
        system,
        topology_factory,
        rate_hz,
        write_ratio,
        profile,
        config=config,
        canopus_config=canopus_config,
        epaxos_config=epaxos_config,
        zab_config=zab_config,
    )
    return RatePointResult(
        system=system,
        aggregate_rate_hz=rate_hz,
        write_ratio=write_ratio,
        node_count=len(sut.topology.server_hosts),
        summary=summary,
    )


def _execute_rate_point(
    system: str,
    topology_factory: TopologyFactory,
    rate_hz: float,
    write_ratio: float,
    profile: ExperimentProfile,
    config: Any = None,
    canopus_config: Any = None,
    epaxos_config: Any = None,
    zab_config: Any = None,
    instrument: Optional[Callable[[Simulator, SystemUnderTest, WorkloadGenerator], Any]] = None,
) -> Tuple[Simulator, SystemUnderTest, RunSummary]:
    """Build, drive and summarize one rate point, returning the live system.

    :func:`run_rate_point` keeps only the summary; the perf-tracking mode
    also needs the simulator (event counts) and the protocol (commit-log
    fingerprints) after the run.  ``instrument``, when given, runs after
    the system is built and before it starts — the traced-run mode uses it
    to attach the observability fabric (:mod:`repro.obs`).
    """
    simulator = Simulator(seed=profile.seed)
    topology = topology_factory(simulator)
    sut = build_system(
        system,
        topology,
        config=config,
        canopus_config=canopus_config,
        epaxos_config=epaxos_config,
        zab_config=zab_config,
    )
    workload_config = WorkloadConfig(
        client_processes=profile.client_processes,
        aggregate_rate_hz=rate_hz,
        write_ratio=write_ratio,
        key_count=10_000,
        seed=profile.seed,
    )
    generator = WorkloadGenerator(topology, workload_config)
    collector = generator.build()
    if instrument is not None:
        instrument(simulator, sut, generator)

    sut.start()
    generator.start()

    window_start = profile.warmup_s
    window_end = profile.warmup_s + profile.measure_s
    simulator.run_until(window_end)
    generator.stop()
    simulator.run_until(window_end + profile.cooldown_s)
    sut.stop()

    summary = collector.summarize(window_start, window_end)
    return simulator, sut, summary


def find_max_throughput(
    system: str,
    topology_factory: TopologyFactory,
    write_ratio: float,
    profile: Optional[ExperimentProfile] = None,
    config: Any = None,
    canopus_config: Any = None,
    epaxos_config: Any = None,
    zab_config: Any = None,
) -> Tuple[RatePointResult, List[RatePointResult]]:
    """Walk the rate ladder until the latency threshold is exceeded.

    Returns the best rate point (highest measured throughput with median
    completion time under the threshold) and the full list of points, which
    the throughput-latency figures (5 and 6) plot directly.
    """
    profile = profile or ExperimentProfile.quick()
    points: List[RatePointResult] = []
    best: Optional[RatePointResult] = None
    for rate in profile.rate_ladder:
        point = run_rate_point(
            system,
            topology_factory,
            rate_hz=rate,
            write_ratio=write_ratio,
            profile=profile,
            config=config,
            canopus_config=canopus_config,
            epaxos_config=epaxos_config,
            zab_config=zab_config,
        )
        points.append(point)
        summary = point.summary
        goodput_ratio = (
            summary.requests_completed / summary.requests_submitted
            if summary.requests_submitted
            else 1.0
        )
        saturated = (
            summary.median_completion_s > profile.latency_threshold_s
            or goodput_ratio < profile.min_goodput_ratio
        )
        if not saturated:
            if best is None or point.throughput_rps > best.throughput_rps:
                best = point
        else:
            # The paper stops once completion time exceeds the threshold and
            # keeps the last point as the maximum-throughput result.
            break
    if best is None:
        best = points[-1]
    return best, points


# ----------------------------------------------------------------------
# Perf tracking: record the simulator's own speed, not the modelled system's
# ----------------------------------------------------------------------
@dataclass
class PerfPoint:
    """A fixed-seed workload point whose *host* performance is tracked.

    Everything here pins modelled behaviour (so commit logs are comparable
    across commits); what varies between commits is how fast the simulator
    chews through it — wall-clock, events/second, peak heap.
    """

    label: str
    system: str = "epaxos"
    #: What the point exercises: a simulated protocol ``workload`` (the
    #: default), the event ``engine`` alone (schedule/cancel/drain mix, no
    #: protocol), or a reduced-op run on the ``asyncio`` substrate.
    kind: str = "workload"
    nodes_per_rack: int = 9
    racks: int = 3
    rate_hz: float = 24000.0
    write_ratio: float = 0.2
    warmup_s: float = 0.1
    measure_s: float = 0.3
    cooldown_s: float = 0.05
    client_processes: int = 36
    seed: int = 7
    #: Timing repeats; the minimum wall-clock is reported (least noisy).
    repeats: int = 3
    #: EPaxos batching window (ignored by other systems).
    epaxos_batch_s: float = 0.002
    #: Shards (>1 routes through repro.shard: ``system`` becomes the
    #: per-shard protocol and the workload gains a multi-key mix).
    shard_count: int = 1
    #: Fraction of ops that are cross-shard transactions (sharded points).
    multi_key_ratio: float = 0.0
    #: Fraction of the multi-key ops that are snapshot reads (sharded
    #: points; the CLI ``--reads`` flag overrides it).
    txn_read_ratio: float = 0.0
    #: Total scheduled operations for ``kind="engine"`` points (split
    #: between the wheel-friendly and wheel-hostile distributions).
    engine_ops: int = 120_000
    #: Total sends for ``kind="switch"`` points (split between the skewed
    #: and uniform lane-load distributions).
    drain_ops: int = 60_000
    #: Submitted requests for ``kind="asyncio"`` points (real concurrency
    #: is wall-clock-expensive, so op counts are far below the sim points).
    asyncio_ops: int = 30

    def profile(self) -> ExperimentProfile:
        return ExperimentProfile(
            warmup_s=self.warmup_s,
            measure_s=self.measure_s,
            cooldown_s=self.cooldown_s,
            client_processes=self.client_processes,
            rate_ladder=(self.rate_hz,),
            seed=self.seed,
        )

    def config(self) -> Any:
        if self.system == "epaxos":
            from repro.epaxos.node import EPaxosConfig

            return EPaxosConfig(
                batch_duration_s=self.epaxos_batch_s, latency_probing=True, thrifty=False
            )
        return None


#: The tracked points.  ``sim-hotpath`` is the ISSUE 2 acceptance point —
#: the EPaxos 27-node saturation run (24k req/s, ROADMAP's "EPaxos is the
#: sim bottleneck") — and ``ci-smoke`` is a smaller fixed-seed point cheap
#: enough for every CI run.
PERF_POINTS: Dict[str, PerfPoint] = {
    "sim-hotpath": PerfPoint(label="epaxos-27node-saturation"),
    "ci-smoke": PerfPoint(
        label="epaxos-9node-smoke",
        nodes_per_rack=3,
        rate_hz=8000.0,
        measure_s=0.2,
        client_processes=18,
        repeats=3,
    ),
    # Two canopus shards over 6 hosts with a cross-shard transaction mix
    # (30% of the multi-key ops are snapshot reads, so the fenced read path
    # is on the measured profile): tracks the host-side cost of the sharded
    # path (partitioner routing, per-shard groups, 2PC coordinator, read
    # fences) and pins its modelled behaviour via the commit-log digest,
    # cheaply enough for every CI run.
    "shard-smoke": PerfPoint(
        label="canopus-2shard-smoke",
        system="canopus",
        shard_count=2,
        nodes_per_rack=3,
        racks=2,
        rate_hz=8000.0,
        measure_s=0.2,
        client_processes=18,
        multi_key_ratio=0.05,
        txn_read_ratio=0.3,
        repeats=3,
    ),
    # The event engine alone, no protocol: a deterministic schedule/cancel/
    # drain mix at a wheel-friendly distribution (delays clustered at
    # link/CPU scale) and a wheel-hostile one (uniform 0-250 ms, overflow/
    # cascade dominated).  The digest pins the fired trace, so engine
    # ordering regressions are caught independently of protocol workloads.
    "engine-microbench": PerfPoint(
        label="engine-wheel-mix",
        system="engine",
        kind="engine",
        rate_hz=0.0,
        write_ratio=0.0,
        client_processes=0,
        repeats=3,
    ),
    # The switch-lane merge alone, no protocol: a two-tier topology (racks
    # of hosts behind ToR switches behind one spine) driven by a
    # deterministic cross-rack send mix at a skewed lane-load distribution
    # (one hot rack, a few hot talkers — deep lanes dominate the merge) and
    # a uniform one (every lane shallow — index maintenance dominates).
    # The digest pins the delivery trace, so lane-index regressions surface
    # in isolation from protocol noise, exactly as engine-microbench does
    # for the timer wheel.
    "switch-drain": PerfPoint(
        label="switch-lane-merge-mix",
        system="network",
        kind="switch",
        rate_hz=0.0,
        write_ratio=0.0,
        client_processes=0,
        repeats=3,
    ),
    # The shard-smoke shape (canopus, 2 racks x 3 nodes) on the asyncio
    # substrate at sharply reduced op counts: real sleeps and genuine task
    # concurrency, so wall-clock is tracked but no commit-log digest is
    # pinned (interleavings are non-deterministic by design).
    "asyncio-smoke": PerfPoint(
        label="canopus-asyncio-smoke",
        system="canopus",
        kind="asyncio",
        nodes_per_rack=3,
        racks=2,
        rate_hz=0.0,
        write_ratio=0.5,
        client_processes=0,
        asyncio_ops=30,
        repeats=2,
    ),
}


def _drive_engine_mix(loop_cls: type, ops: int, seed: int, hostile: bool) -> Tuple[Any, List[tuple]]:
    """Drive one event engine through a deterministic schedule/cancel/drain mix.

    The mix is the engine micro-benchmark *and* the differential-test
    driver: it returns the loop plus the fired ``(tag, time)`` trace, and
    because both engines execute any schedule stream in the identical
    ``(time, priority, seq)`` order, the trace — including the RNG draws
    made from inside callbacks — must be byte-identical between
    :class:`repro.sim.engine.EventLoop` and
    :class:`repro.sim.engine.HeapEventLoop`.

    ``hostile=False`` clusters delays at link/CPU scale (tens of µs), the
    regime the wheel is built for: high bucket occupancy, near-zero
    overflow.  ``hostile=True`` spreads delays uniformly over 0–250 ms,
    far past the ~33 ms wheel horizon, so most inserts land in the
    overflow heap and the run is dominated by cascades — the wheel's
    worst case, tracked so a regression there is caught independently of
    the protocol workloads.
    """
    rng = random.Random(seed)
    loop = loop_cls()
    trace: List[tuple] = []
    chain_budget = ops // 3

    if hostile:
        def delta() -> float:
            return rng.random() * 0.25
    else:
        def delta() -> float:
            return 25e-6 + rng.random() * 20e-6

    def fire(tag: int) -> None:
        nonlocal chain_budget
        trace.append((tag, loop.now))
        if chain_budget > 0 and rng.random() < 0.35:
            chain_budget -= 1
            loop.schedule_fast(loop.now + delta(), partial(fire, tag + 1_000_000), rng.randrange(4, 12))

    pending: List[Any] = []
    for index in range(ops):
        choice = rng.random()
        when = loop.now + delta()
        if choice < 0.70:
            loop.schedule_fast(when, partial(fire, index), rng.randrange(4, 12))
        else:
            pending.append(loop.schedule_at(when, partial(fire, index), priority=rng.randrange(4, 12)))
            if len(pending) >= 8 and rng.random() < 0.5:
                pending.pop(rng.randrange(len(pending))).cancel()
        if index & 1023 == 1023:
            # Interleave draining with scheduling so inserts hit every
            # regime (before base, in-wheel, overflow) at a moving base.
            loop.run_until(loop.now + (0.05 if hostile else 0.002))
    loop.run()
    return loop, trace


def _run_engine_microbench(point: PerfPoint) -> Tuple[int, str, int]:
    """Run the engine micro-benchmark; returns (events, digest, fired).

    The digest fingerprints the fired ``(tag, time)`` traces of both
    distributions, so the CI digest gate pins the engine's execution
    *order* exactly as the workload points pin commit logs.
    """
    from repro.sim.engine import EventLoop

    events = 0
    fired = 0
    digest = hashlib.sha256()
    for hostile in (False, True):
        loop, trace = _drive_engine_mix(EventLoop, point.engine_ops // 2, point.seed + hostile, hostile)
        events += loop.processed_events
        fired += len(trace)
        digest.update(repr(trace).encode("utf-8"))
    return events, digest.hexdigest(), fired


def _drive_switch_drain_mix(
    loop_cls: type, ops: int, seed: int, skewed: bool
) -> Tuple[Any, List[tuple]]:
    """Drive the switch-lane merge through a deterministic cross-rack send mix.

    Builds a two-tier tree (3 racks x 8 hosts behind ToR switches behind
    one spine) so every lane flavour is on the path: host-link lanes into
    the ToRs, ToR lanes into the spine, and spine lanes back down — the
    exact structures ``Switch._drain_to`` merges through the persistent
    lane index.  Like :func:`_drive_engine_mix` it doubles as the
    micro-benchmark and the differential-test driver: it returns the loop
    plus the delivered ``(dst, src, tag, time)`` trace, which must be
    byte-identical between the lazy lane-index delivery and the eager
    reference (demoted lanes / :class:`HeapEventLoop`).

    ``skewed=True`` concentrates sends on a few hot talkers (cubed draw:
    roughly half the traffic from the first ~5 hosts), so a handful of
    deep lanes dominate each merge.  ``skewed=False`` spreads sends
    uniformly, so every lane stays shallow and the run is dominated by
    index maintenance (heappush/heapreplace churn) instead of long
    same-lane group walks.  Bounded ``run_until`` windows interleave with
    the pushes so drains hit mid-window caps, dry lanes, and reopened
    head groups.
    """
    from repro.sim.network import Network

    racks, per_rack = 3, 8
    rng = random.Random(seed)
    loop = loop_cls()
    net = Network(loop)
    names: List[str] = []
    for rack in range(racks):
        net.add_switch(f"tor-{rack}")
        for index in range(per_rack):
            name = f"h{rack}-{index}"
            names.append(name)
            net.add_host(name)
            net.add_link(name, f"tor-{rack}", latency_s=5e-6, bandwidth_bps=10e9)
    net.add_switch("spine")
    for rack in range(racks):
        net.add_link(f"tor-{rack}", "spine", latency_s=5e-6, bandwidth_bps=40e9)

    trace: List[tuple] = []
    count = len(names)
    for name in names:
        def on_rx(src: str, payload: Any, me: str = name) -> None:
            trace.append((me, src, payload, loop.now))

        net.element(name).set_handler(on_rx)

    for index in range(ops):
        if skewed:
            src_i = int(rng.random() ** 3 * count)
        else:
            src_i = rng.randrange(count)
        dst_i = rng.randrange(count - 1)
        if dst_i >= src_i:
            dst_i += 1
        net.send(names[src_i], names[dst_i], index, 128 + (index & 511))
        if index & 511 == 511:
            loop.run_until(loop.now + rng.random() * 5e-4)
    loop.run()
    return loop, trace


def _run_switch_drain_microbench(point: PerfPoint) -> Tuple[int, str, int]:
    """Run the switch-drain micro-benchmark; returns (events, digest, delivered).

    The digest fingerprints the delivered traces of both lane-load
    distributions, so the CI digest gate pins the merged forward *order*
    exactly as engine-microbench pins the timer wheel's fired order.
    """
    from repro.sim.engine import EventLoop

    events = 0
    delivered = 0
    digest = hashlib.sha256()
    for skewed in (True, False):
        loop, trace = _drive_switch_drain_mix(
            EventLoop, point.drain_ops // 2, point.seed + skewed, skewed
        )
        events += loop.processed_events
        delivered += len(trace)
        digest.update(repr(trace).encode("utf-8"))
    return events, digest.hexdigest(), delivered


def _run_asyncio_smoke(point: PerfPoint) -> Tuple[int, int]:
    """Run a reduced-op protocol workload on the asyncio substrate.

    Returns ``(messages_delivered, requests_answered)``.  Real sleeps and
    genuine task interleavings make the run non-deterministic, so there is
    no commit-log digest — the point tracks wall-clock only (the ROADMAP
    carried item: asyncio perf was previously unmeasured).
    """
    from repro.canopus.config import CanopusConfig
    from repro.canopus.messages import ClientRequest, RequestType
    from repro.protocols import build_protocol
    from repro.runtime.asyncio_runtime import AsyncioTopology

    rack_map = {
        f"rack-{rack}": [f"n{rack}-{index}" for index in range(point.nodes_per_rack)]
        for rack in range(point.racks)
    }
    topology = AsyncioTopology(rack_map, seed=point.seed)
    replies: List[Any] = []
    config = None
    if point.system in ("canopus", "zkcanopus"):
        # The conformance suite's wall-clock tuning: ideal broadcast and
        # short cycles keep real-sleep runs fast and stable.
        config = CanopusConfig(
            broadcast_mode="ideal",
            pipelining=False,
            cycle_interval_s=0.02,
            heartbeat_interval_s=0.5,
            fetch_timeout_s=0.5,
        )
    protocol = build_protocol(point.system, topology, config=config, on_reply=replies.append)
    protocol.start()
    try:
        node_ids = protocol.node_ids()
        rng = random.Random(point.seed)
        for index in range(point.asyncio_ops):
            if rng.random() < point.write_ratio or index < 2:
                request = ClientRequest(
                    client_id=f"perf-w{index}",
                    op=RequestType.WRITE,
                    key=f"key-{index % 8}",
                    value=f"value-{index}",
                )
            else:
                request = ClientRequest(
                    client_id=f"perf-r{index}", op=RequestType.READ, key=f"key-{index % 8}"
                )
            protocol.submit(request, node_id=node_ids[index % len(node_ids)])
        topology.cluster.run(topology.cluster.settle(timeout_s=8.0, quiescent_rounds=10))
        topology.cluster.run_for(0.1)
        delivered = topology.cluster.messages_delivered
        answered = len({reply.request_id for reply in replies})
    finally:
        protocol.stop()
        topology.cluster.close()
    return delivered, answered


def measure_host_calibration(ops: int = 120_000, repeats: int = 3) -> float:
    """Measure this host's speed on a fixed, repo-independent micro-kernel.

    The kernel mirrors the simulator's operation mix — tuple heap churn plus
    dict updates — but deliberately uses only the standard library, so
    optimizing (or regressing) the simulator never moves the calibration
    number.  Perf gates divide a run's events/second by this figure to get a
    hardware-independent ratio: the committed baseline can then be recorded
    on a fast dev machine and still gate correctly on a slower CI runner.
    Returns the best ops/second over ``repeats`` runs (least noisy).
    """
    import heapq

    best = 0.0
    for _ in range(max(1, repeats)):
        heap: List[Tuple[float, int]] = []
        state: Dict[int, int] = {}
        start = time.perf_counter()
        for index in range(ops):
            heapq.heappush(heap, ((index * 2654435761) % 1000003 / 1000003.0, index))
            state[index & 1023] = index
            if len(heap) > 512:
                heapq.heappop(heap)
        elapsed = time.perf_counter() - start
        if elapsed > 0:
            best = max(best, ops / elapsed)
    return round(best)


def _commit_log_sha256(logs: Dict[str, List[int]]) -> str:
    """Order-normalized fingerprint of every replica's commit log.

    Request ids come from a process-global counter, so they are normalized
    to the run's smallest id; the digest then depends only on modelled
    behaviour and is comparable across commits and processes.  ``logs``
    maps replica name to commit order — a protocol's ``committed_logs()``
    or a sharded cluster's flat ``"<shard>:<node>"`` view.
    """
    all_ids = [i for log in logs.values() for i in log]
    base = min(all_ids) if all_ids else 0
    normalized = {node: [i - base for i in log] for node, log in sorted(logs.items())}
    return hashlib.sha256(json.dumps(normalized, sort_keys=True).encode("utf-8")).hexdigest()


def run_perf_tracking(point: PerfPoint) -> Dict[str, Any]:
    """Measure host-side performance of one fixed-seed workload point.

    Runs the point ``point.repeats`` times for wall-clock (minimum wins),
    then once more under :mod:`tracemalloc` for peak heap (tracing slows
    execution, so the traced run is never timed).  Returns a plain dict
    ready for :func:`update_perf_report`.

    Points with ``shard_count > 1`` run through the sharded harness
    (:mod:`repro.bench.shard_bench`): same measurements, with the commit-log
    digest taken over every shard's replicas.  ``kind="engine"`` points run
    the engine micro-benchmark (no protocol; the digest pins the fired
    trace), ``kind="switch"`` points run the switch-lane merge
    micro-benchmark (no protocol; the digest pins the delivery trace), and
    ``kind="asyncio"`` points run on the asyncio substrate (no digest —
    real concurrency is non-deterministic).
    """
    if point.kind == "engine":

        def run():
            return _run_engine_microbench(point)

    elif point.kind == "switch":

        def run():
            return _run_switch_drain_microbench(point)

    elif point.kind == "asyncio":

        def run():
            delivered, answered = _run_asyncio_smoke(point)
            return delivered, "", answered

    elif point.shard_count > 1:
        from repro.bench.shard_bench import ShardPointConfig, _execute_shard_point

        shard_config = ShardPointConfig(
            shard_count=point.shard_count,
            protocol=point.system,
            nodes_per_rack=point.nodes_per_rack,
            racks=point.racks,
            rate_hz=point.rate_hz,
            write_ratio=point.write_ratio,
            multi_key_ratio=point.multi_key_ratio,
            txn_read_ratio=point.txn_read_ratio,
            client_processes=point.client_processes,
            warmup_s=point.warmup_s,
            measure_s=point.measure_s,
            cooldown_s=point.cooldown_s,
            seed=point.seed,
            verify=False,  # perf tracking measures the host, digests pin behaviour
        )

        def run():
            simulator, cluster, _router, result = _execute_shard_point(shard_config)
            return (
                simulator.loop.processed_events,
                _commit_log_sha256(cluster.committed_logs()),
                result.requests_completed,
            )

    else:
        factory = partial(
            make_single_dc_topology, nodes_per_rack=point.nodes_per_rack, racks=point.racks
        )
        profile = point.profile()
        run_point = partial(
            _execute_rate_point,
            point.system,
            factory,
            point.rate_hz,
            point.write_ratio,
            profile,
            config=point.config(),
        )

        def run():
            simulator, sut, summary = run_point()
            return (
                simulator.loop.processed_events,
                _commit_log_sha256(sut.protocol.committed_logs()),
                summary.requests_completed,
            )

    best_wall: Optional[float] = None
    events = 0
    digest = ""
    completed = 0
    # Cyclic-GC pauses are pure noise on the measured region (the simulator
    # allocates millions of short-lived tuples/messages, refcounting frees
    # them all): disable collection and freeze the pre-run heap out of
    # generation scans for the timed repeats, restore afterwards.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    gc.freeze()
    try:
        for _ in range(max(1, point.repeats)):
            start = time.perf_counter()
            events, digest, completed = run()
            wall = time.perf_counter() - start
            if best_wall is None or wall < best_wall:
                best_wall = wall
    finally:
        gc.unfreeze()
        if gc_was_enabled:
            gc.enable()
        gc.collect()

    tracemalloc.start()
    try:
        run()
        _, peak_heap = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()

    return {
        "label": point.label,
        "system": point.system,
        "node_count": point.nodes_per_rack * point.racks,
        "shard_count": point.shard_count,
        "rate_hz": point.rate_hz,
        "write_ratio": point.write_ratio,
        "txn_read_ratio": point.txn_read_ratio,
        "seed": point.seed,
        "wall_s": round(best_wall, 4),
        "events": events,
        "events_per_s": round(events / best_wall),
        "peak_heap_bytes": peak_heap,
        "requests_completed": completed,
        "commit_log_sha256": digest,
        "calibration_ops_per_s": measure_host_calibration(),
        "gc_disabled_during_measurement": True,
    }


def run_traced_point(point: PerfPoint, trace_path: str) -> Dict[str, Any]:
    """Run one workload perf point once with the observability fabric on.

    Attaches a :class:`repro.obs.Tracer` (request spans + protocol phases),
    a :class:`repro.obs.Telemetry` registry and a sim-time sampler, then
    exports the run as ``trace_path`` (the canonical ``repro-trace-v1``
    JSON, readable by ``python -m repro.obs.report``) plus a Chrome
    trace-event file next to it (open in Perfetto / ``chrome://tracing``).

    Engine and asyncio points have no request/protocol structure to trace;
    only workload points (``kind == "sim"``) are supported.
    """
    from repro.obs import (
        Telemetry,
        TelemetrySampler,
        Tracer,
        export_chrome_trace,
        export_json,
        trace_digest,
        trace_to_dict,
    )

    if point.kind != "workload":
        raise ValueError(f"--trace supports workload points only, not kind={point.kind!r}")

    captured: Dict[str, Any] = {}

    def _attach(simulator, network, shard_metrics, attach):
        tracer = Tracer(lambda: simulator.now)
        telemetry = Telemetry()
        sampler = TelemetrySampler(
            telemetry, simulator, network=network, shard_metrics=shard_metrics
        )
        attach(tracer)
        sampler.start()
        captured.update(tracer=tracer, telemetry=telemetry, sampler=sampler)
        return tracer

    if point.shard_count > 1:
        from repro.bench.shard_bench import ShardPointConfig, _execute_shard_point

        shard_config = ShardPointConfig(
            shard_count=point.shard_count,
            protocol=point.system,
            nodes_per_rack=point.nodes_per_rack,
            racks=point.racks,
            rate_hz=point.rate_hz,
            write_ratio=point.write_ratio,
            multi_key_ratio=point.multi_key_ratio,
            txn_read_ratio=point.txn_read_ratio,
            client_processes=point.client_processes,
            warmup_s=point.warmup_s,
            measure_s=point.measure_s,
            cooldown_s=point.cooldown_s,
            seed=point.seed,
            verify=False,
        )

        def instrument(simulator, cluster, router, metrics, generator):
            def attach(tracer):
                cluster.attach_tracer(tracer)
                router._obs = tracer
                for agent in generator.agents:
                    agent.attach_tracer(tracer)

            return _attach(simulator, cluster.topology.network, metrics, attach)

        _execute_shard_point(shard_config, instrument=instrument)
    else:
        factory = partial(
            make_single_dc_topology, nodes_per_rack=point.nodes_per_rack, racks=point.racks
        )

        def instrument(simulator, sut, generator):
            def attach(tracer):
                sut.protocol.attach_tracer(tracer)
                for agent in generator.agents:
                    agent.attach_tracer(tracer)

            return _attach(simulator, sut.topology.network, None, attach)

        _execute_rate_point(
            point.system,
            factory,
            point.rate_hz,
            point.write_ratio,
            point.profile(),
            config=point.config(),
            instrument=instrument,
        )

    tracer = captured["tracer"]
    telemetry = captured["telemetry"]
    captured["sampler"].stop()
    export_json(tracer, trace_path, telemetry=telemetry)
    if trace_path.endswith(".json"):
        chrome_path = trace_path[: -len(".json")] + ".chrome.json"
    else:
        chrome_path = trace_path + ".chrome.json"
    export_chrome_trace(tracer, chrome_path, telemetry=telemetry)
    return {
        "trace": trace_path,
        "chrome_trace": chrome_path,
        "spans": len(tracer.spans),
        "trace_sha256": trace_digest(trace_to_dict(tracer, telemetry=telemetry)),
    }


def update_perf_report(
    path: str, key: str, current: Dict[str, Any], set_baseline: bool = False
) -> Dict[str, Any]:
    """Merge one perf measurement into the committed ``BENCH_*.json`` report.

    The report keeps, per tracked point, the committed ``baseline`` (the
    numbers the repository's history vouches for) and the latest
    ``current`` measurement plus derived before/after ratios.  The first
    measurement of a point — or ``set_baseline=True`` — (re)establishes the
    baseline.  Returns the entry for ``key`` after the merge.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        report = {"benchmark": "sim_hotpath", "points": {}}
    points = report.setdefault("points", {})
    entry = points.setdefault(key, {})
    if set_baseline or "baseline" not in entry:
        entry["baseline"] = current
    entry["current"] = current
    baseline = entry["baseline"]
    entry["wall_clock_speedup_vs_baseline"] = round(baseline["wall_s"] / current["wall_s"], 3)
    entry["events_per_s_ratio_vs_baseline"] = round(
        current["events_per_s"] / baseline["events_per_s"], 3
    )
    # Hardware-independent gate: normalize each measurement by the host
    # calibration figure taken in the same run, so a slower CI runner than
    # the machine that recorded the baseline cannot fail the gate spuriously.
    if baseline.get("calibration_ops_per_s") and current.get("calibration_ops_per_s"):
        entry["calibrated_events_per_s_ratio_vs_baseline"] = round(
            (current["events_per_s"] / current["calibration_ops_per_s"])
            / (baseline["events_per_s"] / baseline["calibration_ops_per_s"]),
            3,
        )
    if baseline.get("commit_log_sha256"):
        entry["commit_logs_match_baseline"] = (
            baseline["commit_log_sha256"] == current["commit_log_sha256"]
        )
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return entry


def profile_perf_point(
    point: PerfPoint, key: str, path: str, top_n: int = 25
) -> List[Dict[str, Any]]:
    """Run ``point`` once under cProfile and record the hot functions.

    The top ``top_n`` functions by cumulative time land in the report
    file's ``profiles`` section (keyed by the point name), so a hot-path
    claim can cite committed profile data instead of ad-hoc
    instrumentation.  Profiling inflates wall-clock, so nothing is merged
    into the point's ``baseline``/``current`` entries.  Returns the rows.
    """
    import cProfile
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    current = run_perf_tracking(replace(point, repeats=1))
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, Any]] = []
    for func in stats.fcn_list[: max(1, top_n)]:
        _cc, ncalls, tottime, cumtime, _callers = stats.stats[func]
        filename, line, name = func
        if "/repro/" in filename:
            filename = "repro/" + filename.split("/repro/", 1)[1]
        rows.append(
            {
                "function": f"{filename}:{line}({name})",
                "calls": ncalls,
                "tottime_s": round(tottime, 4),
                "cumtime_s": round(cumtime, 4),
            }
        )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        report = {"benchmark": "sim_hotpath", "points": {}}
    report.setdefault("profiles", {})[key] = {
        "label": point.label,
        "note": "wall-clock under cProfile is inflated; not comparable to baseline/current",
        "wall_s_profiled": current["wall_s"],
        "events": current["events"],
        "top_by_cumtime": rows,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return rows


def diff_profiles(
    old_report: Dict[str, Any], new_report: Dict[str, Any], key: str, top_n: int = 10
) -> Dict[str, Any]:
    """Diff two committed profile snapshots of one perf point.

    Takes two report dicts (the ``BENCH_*.json`` shape), matches the
    ``profiles[key].top_by_cumtime`` rows by function (file:line noise is
    stripped down to ``file(name)`` so pure line drift doesn't break the
    match), and returns the top cumulative-time regressions and
    improvements plus functions that entered or left the snapshot.  This
    is how a perf PR cites its evidence: profile before, profile after,
    diff the committed snapshots.
    """

    def rows(report: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
        section = report.get("profiles", {}).get(key)
        if section is None:
            raise KeyError(f"report has no profile snapshot for {key!r}")
        table: Dict[str, Dict[str, Any]] = {}
        for row in section["top_by_cumtime"]:
            func = row["function"]
            path, _, name = func.partition(":")
            ident = f"{path}({name.partition('(')[2]}" if "(" in name else func
            table[ident] = row
        return table

    old_rows = rows(old_report)
    new_rows = rows(new_report)
    deltas = []
    for ident in old_rows.keys() & new_rows.keys():
        old, new = old_rows[ident], new_rows[ident]
        deltas.append(
            {
                "function": new["function"],
                "cumtime_s_old": old["cumtime_s"],
                "cumtime_s_new": new["cumtime_s"],
                "cumtime_s_delta": round(new["cumtime_s"] - old["cumtime_s"], 4),
                "calls_old": old["calls"],
                "calls_new": new["calls"],
            }
        )
    deltas.sort(key=lambda row: row["cumtime_s_delta"])
    return {
        "point": key,
        "note": "profiled wall-clock; deltas also reflect machine noise between snapshots",
        "improvements": [d for d in deltas if d["cumtime_s_delta"] < 0][:top_n],
        "regressions": [d for d in reversed(deltas) if d["cumtime_s_delta"] > 0][:top_n],
        "entered_top": sorted(
            (new_rows[i]["function"] for i in new_rows.keys() - old_rows.keys())
        ),
        "left_top": sorted(
            (old_rows[i]["function"] for i in old_rows.keys() - new_rows.keys())
        ),
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for the perf-tracking mode (used by the CI perf smoke step).

    ``python -m repro.bench.runner --perf-point ci-smoke --report
    BENCH_sim_hotpath.json --fail-below 0.7`` runs the point, merges it
    into the report, and exits non-zero when events/second fell below the
    given fraction of the committed baseline.  The comparison uses the
    *calibrated* ratio whenever both measurements carry a host-calibration
    figure (:func:`measure_host_calibration`), so the gate is insensitive
    to the baseline having been recorded on different hardware.

    ``--reads R`` overrides the point's snapshot-read mix (the fraction of
    multi-key operations that are ``read_txn`` snapshot reads; sharded
    points only).  Changing the mix changes modelled behaviour, so the
    commit-log digest comparison is skipped unless the mix matches the
    baseline's.

    ``python -m repro.bench.runner --shard-saturation`` instead runs the
    sharded scaling sweep (a per-shard-count max-throughput search over the
    offered-rate ladder, fixed seed), prints the report, merges it into the
    report file under ``shard_saturation``, and fails when 4-shard
    committed-ops/s is below ``--min-scaling`` times the single-shard
    maximum or any linearizability / atomicity / isolation check fails.
    """
    import argparse

    parser = argparse.ArgumentParser(description=main.__doc__)
    parser.add_argument("--perf-point", choices=sorted(PERF_POINTS), default="ci-smoke")
    parser.add_argument("--report", default="BENCH_sim_hotpath.json")
    parser.add_argument(
        "--fail-below",
        type=float,
        default=None,
        help="fail when current events/s < this fraction of the committed baseline "
        "(calibration-normalized when available)",
    )
    parser.add_argument(
        "--set-baseline", action="store_true", help="re-establish the committed baseline"
    )
    parser.add_argument(
        "--reads",
        type=float,
        default=None,
        metavar="RATIO",
        help="override the perf point's snapshot-read mix (fraction of multi-key "
        "ops that are read_txn snapshot reads; sharded points only)",
    )
    parser.add_argument(
        "--profile",
        type=int,
        default=None,
        metavar="N",
        help="run the perf point under cProfile and record the top-N functions "
        "by cumulative time in the report's 'profiles' section; profiled "
        "wall-clock is inflated, so the measurement is NOT merged into the "
        "point's baseline/current entries and no gate is applied",
    )
    parser.add_argument(
        "--profile-diff",
        nargs=2,
        default=None,
        metavar=("OLD", "NEW"),
        help="diff two committed profile snapshots (report files with a "
        "'profiles' section, e.g. the previous commit's BENCH file via "
        "git show and the current one) for --perf-point: prints the top "
        "cumtime regressions and improvements per function; no workload "
        "is run and no gate is applied",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="after the perf measurement, run the point once more with the "
        "observability fabric attached and write the trace (plus a Chrome "
        "trace-event file next to it) to PATH; read it back with "
        "'python -m repro.obs.report PATH'",
    )
    parser.add_argument(
        "--shard-saturation",
        action="store_true",
        help="run the sharded throughput-scaling sweep instead of a perf point",
    )
    parser.add_argument(
        "--min-scaling",
        type=float,
        # The recorded curve (BENCH_sim_hotpath.json, shard_saturation) reads
        # 195k / 205k / 264k for 1 / 2 / 4 shards: a 12-node group's Raft
        # broadcast now costs 3(n-1) messages, so one group comes within a
        # third of the most four shards carry on the same hosts and network.
        default=1.25,
        help="fail the shard sweep when 4-shard/1-shard ops/s is below this",
    )
    args = parser.parse_args(argv)

    if args.shard_saturation:
        from repro.bench.shard_bench import run_shard_saturation

        report = run_shard_saturation()
        print(json.dumps(report, indent=2))
        try:
            with open(args.report, "r", encoding="utf-8") as fh:
                full = json.load(fh)
        except (FileNotFoundError, json.JSONDecodeError):
            full = {"benchmark": "sim_hotpath", "points": {}}
        full["shard_saturation"] = report
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(full, fh, indent=2, sort_keys=True)
            fh.write("\n")
        top = str(max(int(count) for count in report["scaling_vs_single"]))
        scaling = report["scaling_vs_single"][top]
        if not report["all_linearizable"] or not report["all_atomic"] or not report["all_isolated"]:
            print("ERROR: shard sweep failed verification (linearizability/atomicity/isolation)")
            return 2
        if report["any_collapsed_max"]:
            print("ERROR: a shard count collapsed even at the lowest ladder rung")
            return 2
        if scaling < args.min_scaling:
            print(f"ERROR: {top}-shard scaling {scaling:.2f}x below {args.min_scaling}x")
            return 1
        print(f"shard-saturation ok: {top}-shard scaling {scaling:.2f}x, all checks passed")
        return 0

    if args.profile_diff is not None:
        old_path, new_path = args.profile_diff
        with open(old_path, "r", encoding="utf-8") as fh:
            old_report = json.load(fh)
        with open(new_path, "r", encoding="utf-8") as fh:
            new_report = json.load(fh)
        try:
            diff = diff_profiles(old_report, new_report, args.perf_point)
        except KeyError as exc:
            print(f"ERROR: {exc.args[0]}")
            return 2
        print(json.dumps(diff, indent=2))
        return 0

    point = PERF_POINTS[args.perf_point]
    if args.reads is not None:
        point = replace(point, txn_read_ratio=args.reads)
    if args.profile is not None:
        rows = profile_perf_point(point, args.perf_point, args.report, top_n=args.profile)
        for row in rows:
            print(
                f"{row['cumtime_s']:9.4f}s cum {row['tottime_s']:9.4f}s tot "
                f"{row['calls']:>9} calls  {row['function']}"
            )
        print(f"profile of {point.label!r} recorded in {args.report} (no gate applied)")
        return 0
    current = run_perf_tracking(point)
    entry = update_perf_report(args.report, args.perf_point, current, set_baseline=args.set_baseline)
    if args.trace is not None:
        traced = run_traced_point(point, args.trace)
        print(
            f"trace: {traced['spans']} spans -> {traced['trace']} "
            f"(+ {traced['chrome_trace']}), sha256={traced['trace_sha256'][:12]}"
        )
    ratio = entry["events_per_s_ratio_vs_baseline"]
    calibrated = entry.get("calibrated_events_per_s_ratio_vs_baseline")
    gate_ratio = calibrated if calibrated is not None else ratio
    gate_kind = "calibrated" if calibrated is not None else "raw"
    print(
        f"{point.label}: wall={current['wall_s']}s "
        f"events/s={current['events_per_s']} "
        f"peak_heap={current['peak_heap_bytes'] / 1e6:.1f}MB "
        f"events/s ratio vs baseline={ratio}"
        + (f" (calibrated {calibrated})" if calibrated is not None else "")
    )
    baseline = entry["baseline"]
    same_workload = baseline.get("txn_read_ratio", 0.0) == current.get("txn_read_ratio", 0.0)
    if entry.get("commit_logs_match_baseline") is False and same_workload:
        print("ERROR: commit logs diverged from the committed baseline (fixed seed)")
        return 2
    if args.fail_below is not None and gate_ratio < args.fail_below:
        print(
            f"ERROR: {gate_kind} events/s regressed below {args.fail_below:.0%} "
            "of the committed baseline"
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
