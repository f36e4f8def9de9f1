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

import argparse
import gc
import hashlib
import json
import random
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple, TypeVar,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.bench.shard_bench import ShardPointConfig

from repro.bench.builders import SystemUnderTest, build_system, make_single_dc_topology
from repro.metrics.collector import RunSummary
from repro.sim.engine import Simulator
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

__all__ = [
    "ExperimentProfile",
    "RatePointResult",
    "run_rate_point",
    "walk_rate_ladder",
    "find_max_throughput",
    "PerfPoint",
    "PERF_POINTS",
    "run_perf_tracking",
    "update_perf_report",
]

Point = TypeVar("Point")


@dataclass
class ExperimentProfile:
    """How long / how hard to run each measurement."""

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

    def saturates(self, point: "RatePointResult") -> bool:
        """Whether ``point`` ends the ladder walk: median completion time over
        the threshold, or goodput below :attr:`min_goodput_ratio`."""
        summary = point.summary
        goodput_ratio = (
            summary.requests_completed / summary.requests_submitted
            if summary.requests_submitted
            else 1.0
        )
        return (
            summary.median_completion_s > self.latency_threshold_s
            or goodput_ratio < self.min_goodput_ratio
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
    profile: ExperimentProfile,
    config: Any = None,
) -> RatePointResult:
    """Build a fresh simulator + system + workload and measure one rate point.

    ``config`` is the protocol's own configuration object; the registry
    validates its type against ``system``.
    """
    simulator, sut, summary = _execute_rate_point(
        system, topology_factory, rate_hz, write_ratio, profile, config=config
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
    sut = build_system(system, topology, config=config)
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


def walk_rate_ladder(
    rates: Sequence[float],
    measure: Callable[[float], Point],
    saturated: Callable[[Point], bool],
    throughput: Callable[[Point], float],
) -> Tuple[Point, List[Point]]:
    """The §8.1 maximum-throughput search over an offered-rate ladder.

    Measures each rung in order and stops at the first ``saturated`` one:
    past it, open-loop queues only grow.  Returns the unsaturated point of
    highest ``throughput`` plus every point measured.  When the first rung
    already saturates, that point is returned as the best one.
    """
    points: List[Point] = []
    best: Optional[Point] = None
    for rate in rates:
        point = measure(rate)
        points.append(point)
        if saturated(point):
            break
        if best is None or throughput(point) > throughput(best):
            best = point
    return (best if best is not None else points[-1]), points


def find_max_throughput(
    system: str,
    topology_factory: TopologyFactory,
    write_ratio: float,
    profile: ExperimentProfile,
    config: Any = None,
) -> Tuple[RatePointResult, List[RatePointResult]]:
    """Walk the profile's rate ladder until :meth:`ExperimentProfile.saturates`.

    Returns the best rate point (highest measured throughput with median
    completion time under the threshold) and every point measured.
    """
    return walk_rate_ladder(
        profile.rate_ladder,
        lambda rate: run_rate_point(
            system, topology_factory, rate, write_ratio, profile=profile, config=config
        ),
        profile.saturates,
        attrgetter("throughput_rps"),
    )


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
    #: protocol), or the ``switch``-lane merge alone (no protocol).
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
    #: Shards (>1 routes through repro.shard: ``system`` becomes the
    #: per-shard protocol and the workload gains a multi-key mix).
    shard_count: int = 1
    #: Fraction of ops that are cross-shard transactions (sharded points).
    multi_key_ratio: float = 0.0
    #: Fraction of the multi-key ops that are snapshot reads (sharded points).
    txn_read_ratio: float = 0.0
    #: Total scheduled operations for ``kind="engine"`` points (split
    #: between the clustered-delay and spread-delay distributions).
    engine_ops: int = 120_000
    #: Total sends for ``kind="switch"`` points (split between the skewed
    #: and uniform lane-load distributions).
    drain_ops: int = 60_000

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

            return EPaxosConfig(batch_duration_s=0.002, latency_probing=True, thrifty=False)
        return None

    def execute_rate_point(
        self,
        instrument: Optional[Callable[[Simulator, SystemUnderTest, WorkloadGenerator], Any]] = None,
    ) -> Tuple[Simulator, SystemUnderTest, RunSummary]:
        """Run this single-group workload point once (see :func:`_execute_rate_point`)."""
        factory = partial(
            make_single_dc_topology, nodes_per_rack=self.nodes_per_rack, racks=self.racks
        )
        return _execute_rate_point(
            self.system,
            factory,
            self.rate_hz,
            self.write_ratio,
            self.profile(),
            config=self.config(),
            instrument=instrument,
        )

    def shard_config(self) -> ShardPointConfig:
        """This point as a :class:`repro.bench.shard_bench.ShardPointConfig`.

        Perf points measure the host and pin behaviour by digest, so the
        sharded harness's checkers stay off.
        """
        from repro.bench.shard_bench import ShardPointConfig

        return ShardPointConfig(
            shard_count=self.shard_count,
            protocol=self.system,
            nodes_per_rack=self.nodes_per_rack,
            racks=self.racks,
            rate_hz=self.rate_hz,
            write_ratio=self.write_ratio,
            multi_key_ratio=self.multi_key_ratio,
            txn_read_ratio=self.txn_read_ratio,
            client_processes=self.client_processes,
            warmup_s=self.warmup_s,
            measure_s=self.measure_s,
            cooldown_s=self.cooldown_s,
            seed=self.seed,
            verify=False,
        )


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
    # drain mix at clustered delays (link/CPU scale, a shallow heap) and
    # spread delays (uniform 0-250 ms, a deep heap).  The digest pins the
    # fired trace, so engine ordering regressions are caught independently
    # of protocol workloads.
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
    # for the event engine.
    "switch-drain": PerfPoint(
        label="switch-lane-merge-mix",
        system="network",
        kind="switch",
        rate_hz=0.0,
        write_ratio=0.0,
        client_processes=0,
        repeats=3,
    ),
}


def _drive_engine_mix(loop_cls: type, ops: int, seed: int, hostile: bool) -> Tuple[Any, List[tuple]]:
    """Drive an event loop through a deterministic schedule/cancel/drain mix.

    The mix is the engine micro-benchmark *and* the engine's ordering pin:
    it returns the loop plus the fired ``(tag, time)`` trace.  The trace —
    including the RNG draws made from inside callbacks — depends only on
    the ``(time, priority, seq)`` execution order, so its digest (pinned in
    ``tests/test_sim_engine.py`` and the perf ledger) catches any change to
    that order.

    ``hostile=False`` clusters delays at link/CPU scale (tens of µs): the
    heap stays shallow and most entries fire within a window.
    ``hostile=True`` spreads delays uniformly over 0–250 ms, so the heap
    holds many far-future entries and every push and pop walks a deeper
    tree — tracked so a regression there is caught independently of the
    protocol workloads.
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
            # Interleave draining with scheduling so inserts land both
            # near and far from a moving clock.
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
    byte-identical between lane delivery and the eager
    one-event-per-arrival network under ``tests/``.

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
    exactly as engine-microbench pins the event engine's fired order.
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
    trace), and ``kind="switch"`` points run the switch-lane merge
    micro-benchmark (no protocol; the digest pins the delivery trace).
    """
    if point.kind == "engine":

        def run():
            return _run_engine_microbench(point)

    elif point.kind == "switch":

        def run():
            return _run_switch_drain_microbench(point)

    elif point.shard_count > 1:
        from repro.bench.shard_bench import _execute_shard_point

        shard_config = point.shard_config()

        def run():
            simulator, cluster, _router, result = _execute_shard_point(shard_config)
            return (
                simulator.loop.processed_events,
                _commit_log_sha256(cluster.committed_logs()),
                result.requests_completed,
            )

    else:

        def run():
            simulator, sut, summary = point.execute_rate_point()
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

    Engine and switch points have no request/protocol structure to trace;
    only workload points (``kind == "workload"``) are supported.
    """
    from repro.obs import (
        Telemetry,
        TelemetrySampler,
        Tracer,
        attach_tracer,
        export_chrome_trace,
        export_json,
        trace_digest,
        trace_to_dict,
    )

    if point.kind != "workload":
        raise ValueError(f"--trace supports workload points only, not kind={point.kind!r}")

    captured: Dict[str, Any] = {}

    def _attach(simulator, network, shard_metrics, **targets):
        tracer = Tracer(lambda: simulator.now)
        telemetry = Telemetry()
        sampler = TelemetrySampler(
            telemetry, simulator, network=network, shard_metrics=shard_metrics
        )
        attach_tracer(tracer, **targets)
        sampler.start()
        captured.update(tracer=tracer, telemetry=telemetry, sampler=sampler)
        return tracer

    if point.shard_count > 1:
        from repro.bench.shard_bench import _execute_shard_point

        def instrument(simulator, cluster, router, metrics, generator):
            return _attach(
                simulator, cluster.topology.network, metrics,
                cluster=cluster, router=router, agents=generator.agents,
            )

        _execute_shard_point(point.shard_config(), instrument=instrument)
    else:

        def instrument(simulator, sut, generator):
            return _attach(
                simulator, sut.topology.network, None,
                protocol=sut.protocol, agents=generator.agents,
            )

        point.execute_rate_point(instrument=instrument)

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


@contextmanager
def _edited_report(path: str) -> Iterator[Dict[str, Any]]:
    """Read the ``BENCH_*.json`` report at ``path``, yield it, write it back.

    A missing or unreadable file starts an empty report.  Nothing is
    written when the body raises.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        report = {"benchmark": "sim_hotpath", "points": {}}
    yield report
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


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
    with _edited_report(path) as report:
        entry = report.setdefault("points", {}).setdefault(key, {})
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
    return entry


def build_parser() -> argparse.ArgumentParser:
    """The command line of :func:`main`; builds nothing and runs nothing."""
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
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI for the perf-tracking mode (used by the CI perf smoke step).

    ``python -m repro.bench.runner --perf-point ci-smoke --report
    BENCH_sim_hotpath.json --fail-below 0.7`` runs the point, merges it
    into the report, and exits non-zero when events/second fell below the
    given fraction of the committed baseline or the commit-log digest
    diverged from the baseline's.  The comparison uses the *calibrated*
    ratio whenever both measurements carry a host-calibration figure
    (:func:`measure_host_calibration`), so the gate is insensitive to the
    baseline having been recorded on different hardware.

    ``python -m repro.bench.runner --shard-saturation`` instead runs the
    sharded scaling sweep (a per-shard-count max-throughput search over the
    offered-rate ladder, fixed seed), prints the report, merges it into the
    report file under ``shard_saturation``, and fails when 4-shard
    committed-ops/s is below ``--min-scaling`` times the single-shard
    maximum or any linearizability / atomicity / isolation check fails.
    """
    args = build_parser().parse_args(argv)

    if args.shard_saturation:
        from repro.bench.shard_bench import run_shard_saturation

        report = run_shard_saturation()
        print(json.dumps(report, indent=2))
        with _edited_report(args.report) as full:
            full["shard_saturation"] = report
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

    point = PERF_POINTS[args.perf_point]
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
    if entry.get("commit_logs_match_baseline") is False:
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
