"""The ``shard-saturation`` bench point: throughput scaling with shard count.

One consensus group saturates on per-node CPU and oversubscribed uplinks no
matter how many nodes it has — every replica still receives every request.
Sharding breaks that ceiling: K groups over the *same* hosts and network
each carry ~1/K of the keyspace, so committed-ops/s should scale close to
linearly until the shared fabric saturates.  This module measures exactly
that, at a fixed seed, on the §8.1 topology — one max-throughput search per
shard count (:func:`find_max_shard_throughput`), so the scaling curve
compares sustainable rates instead of a collapsed baseline — and verifies
while it measures: every shard's single-key history must be linearizable,
every cross-shard transaction atomic, and every snapshot read a consistent
cut (:mod:`repro.verify.atomicity`), so a scaling win can never be bought
with a correctness loss.

``python -m repro.bench.runner --shard-saturation`` runs the sweep; the
``shard-smoke`` entry of :data:`repro.bench.runner.PERF_POINTS` tracks the
host-side cost of a small fixed sharded run in CI.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.builders import make_single_dc_topology
from repro.shard import ShardedCluster, ShardMetrics, ShardRouter, txn_marker_kind
from repro.shard.router import collect_txn_states
from repro.sim.engine import Simulator
from repro.verify import (
    check_cross_shard_atomicity,
    check_linearizable_history,
    check_read_isolation,
)
from repro.workload.generator import WorkloadConfig, WorkloadGenerator

__all__ = [
    "SHARD_RATE_LADDER",
    "ShardPointConfig",
    "ShardPointResult",
    "find_max_shard_throughput",
    "run_shard_point",
    "run_shard_saturation",
]


@dataclass
class ShardPointConfig:
    """One fixed-seed sharded workload point."""

    shard_count: int = 4
    protocol: str = "canopus"
    nodes_per_rack: int = 4
    racks: int = 3
    #: Offered load of a single point; the saturation sweep overrides it
    #: with each rung of :data:`SHARD_RATE_LADDER`.
    rate_hz: float = 100000.0
    write_ratio: float = 0.2
    multi_key_ratio: float = 0.02
    multi_key_span: int = 3
    #: Fraction of multi-key operations that are snapshot reads
    #: (:meth:`repro.shard.router.ShardRouter.read_txn`).
    txn_read_ratio: float = 0.0
    client_processes: int = 36
    key_count: int = 10_000
    warmup_s: float = 0.1
    measure_s: float = 0.4
    cooldown_s: float = 0.1
    seed: int = 7
    #: Run the linearizability + atomicity + isolation checkers after the
    #: workload.
    verify: bool = True
    #: A point is *collapsed* (goodput collapse: queues grow without bound)
    #: when fewer than this fraction of submitted requests complete in the
    #: measurement window.
    min_goodput_ratio: float = 0.85


@dataclass
class ShardPointResult:
    """Measured and verified outcome of one sharded rate point."""

    shard_count: int
    offered_rate_hz: float
    committed_ops_per_s: float
    per_shard_ops_per_s: Dict[str, float]
    requests_submitted: int
    requests_completed: int
    median_completion_ms: float
    txns_started: int
    txns_committed: int
    txns_aborted: int
    read_txns_started: int
    read_txns_completed: int
    linearizable: bool
    atomic: bool
    isolated: bool
    collapsed: bool
    detail: str = ""

    @property
    def goodput_ratio(self) -> float:
        if not self.requests_submitted:
            return 1.0
        return self.requests_completed / self.requests_submitted

    def as_dict(self) -> Dict[str, Any]:
        return {
            "shard_count": self.shard_count,
            "offered_rate_hz": self.offered_rate_hz,
            "committed_ops_per_s": round(self.committed_ops_per_s, 1),
            "per_shard_ops_per_s": {k: round(v, 1) for k, v in self.per_shard_ops_per_s.items()},
            "requests_submitted": self.requests_submitted,
            "requests_completed": self.requests_completed,
            "goodput_ratio": round(self.goodput_ratio, 3),
            "median_completion_ms": round(self.median_completion_ms, 3),
            "txns_started": self.txns_started,
            "txns_committed": self.txns_committed,
            "txns_aborted": self.txns_aborted,
            "read_txns_started": self.read_txns_started,
            "read_txns_completed": self.read_txns_completed,
            "linearizable": self.linearizable,
            "atomic": self.atomic,
            "isolated": self.isolated,
            "collapsed": self.collapsed,
        }


def _execute_shard_point(
    config: ShardPointConfig,
    instrument: Optional[Callable[..., Any]] = None,
) -> Tuple[Simulator, ShardedCluster, ShardRouter, ShardPointResult]:
    """Build, drive, measure and (optionally) verify one sharded point.

    ``instrument``, when given, runs after the cluster is built and before
    it starts, as ``instrument(simulator, cluster, router, metrics,
    generator)``; its return value (a ``repro.obs.Tracer`` or ``None``) is
    handed to the verify checkers so failures carry trace slices.
    """
    simulator = Simulator(seed=config.seed)
    topology = make_single_dc_topology(
        simulator, nodes_per_rack=config.nodes_per_rack, racks=config.racks
    )
    cluster = ShardedCluster.build(topology, config.shard_count, protocol=config.protocol)
    metrics = ShardMetrics(cluster)
    router = ShardRouter(cluster)
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(
            client_processes=config.client_processes,
            aggregate_rate_hz=config.rate_hz,
            write_ratio=config.write_ratio,
            key_count=config.key_count,
            multi_key_ratio=config.multi_key_ratio,
            multi_key_span=config.multi_key_span,
            txn_read_ratio=config.txn_read_ratio,
            seed=config.seed,
        ),
        router=router,
    )
    collector = generator.build()
    tracer = None
    if instrument is not None:
        tracer = instrument(simulator, cluster, router, metrics, generator)

    cluster.start()
    generator.start()
    window_start = config.warmup_s
    window_end = config.warmup_s + config.measure_s
    simulator.run_until(window_end)
    generator.stop()
    simulator.run_until(window_end + config.cooldown_s)

    summary = collector.summarize(window_start, window_end)
    per_shard = metrics.throughput_rps(window_start, window_end)

    linearizable = True
    atomic = True
    isolated = True
    detail = "verification skipped"
    if config.verify:
        # Atomicity is a property *at quiescence*: a transaction caught
        # mid-decide legitimately has the decision at some participants
        # only.  Drain the saturated backlog until every coordinator-side
        # transaction reached its outcome (bounded, in simulated time).
        drain_deadline = simulator.now + 30.0
        while router.pending_transactions() and simulator.now < drain_deadline:
            simulator.run_until(simulator.now + 0.5)
        failures: List[str] = []
        for shard_id in cluster.shard_ids:
            history = collector.to_history(
                key_filter=lambda key, shard=shard_id: (
                    txn_marker_kind(key) is None and cluster.shard_of(key) == shard
                )
            )
            ok, message = check_linearizable_history(history, tracer=tracer)
            if not ok:
                linearizable = False
                failures.append(f"{shard_id}: {message}")
        states = collect_txn_states(cluster, router.transaction_ids())
        atomic, atomicity_message = check_cross_shard_atomicity(states, tracer=tracer)
        if not atomic:
            failures.append(atomicity_message)
        isolated, isolation_message = check_read_isolation(
            router.snapshot_reads, router.committed_txn_order, tracer=tracer
        )
        if not isolated:
            failures.append(isolation_message)
        detail = (
            "; ".join(failures)
            if failures
            else "all shards linearizable, all txns atomic, no fractured reads"
        )
    cluster.stop()

    goodput = (
        summary.requests_completed / summary.requests_submitted
        if summary.requests_submitted
        else 1.0
    )
    result = ShardPointResult(
        shard_count=config.shard_count,
        offered_rate_hz=config.rate_hz,
        committed_ops_per_s=sum(per_shard.values()),
        per_shard_ops_per_s=per_shard,
        requests_submitted=summary.requests_submitted,
        requests_completed=summary.requests_completed,
        median_completion_ms=summary.median_completion_s * 1000,
        txns_started=router.stats["txns_started"],
        txns_committed=router.stats["txns_committed"],
        txns_aborted=router.stats["txns_aborted"],
        read_txns_started=router.stats["read_txns_started"],
        read_txns_completed=router.stats["read_txns_completed"],
        linearizable=linearizable,
        atomic=atomic,
        isolated=isolated,
        collapsed=goodput < config.min_goodput_ratio,
        detail=detail,
    )
    return simulator, cluster, router, result


def run_shard_point(config: Optional[ShardPointConfig] = None) -> ShardPointResult:
    """Run one sharded rate point; see :class:`ShardPointConfig`."""
    _, _, _, result = _execute_shard_point(config or ShardPointConfig())
    return result


#: Offered-rate ladder of the per-shard-count max-throughput search.  The
#: historical single-rate sweep drove every shard count at 100k: the
#: 1-shard baseline was deep in goodput collapse there (queues grow, the
#: committed-ops window understates capacity), which inflated the reported
#: scaling.  The ladder gives every shard count both lower rungs (an honest,
#: non-collapsed maximum for configurations that collapse early) and higher
#: rungs (so multi-shard configurations that cruise at 100k are measured at
#: their real saturation point, not the old sweep's cap).  One 12-node group
#: now sustains 195k and collapses at 240k, so the rungs are 40k apart from
#: 160k up; four shards still sustain the 280k rung.
SHARD_RATE_LADDER: Sequence[float] = (
    30000.0, 60000.0, 100000.0, 160000.0, 200000.0, 240000.0, 280000.0
)


def find_max_shard_throughput(
    base: ShardPointConfig,
    rate_ladder: Sequence[float] = SHARD_RATE_LADDER,
) -> Tuple[ShardPointResult, List[ShardPointResult]]:
    """Walk ``rate_ladder`` for one shard count; stop at goodput collapse.

    Returns the best *non-collapsed* point (highest committed ops/s whose
    goodput ratio stays above ``base.min_goodput_ratio``) plus every point
    measured.  When even the lowest rung collapses, the last measured point
    is returned with its ``collapsed`` flag set — callers must exclude or
    flag it rather than quote its understated throughput.
    """
    points: List[ShardPointResult] = []
    best: Optional[ShardPointResult] = None
    for rate in rate_ladder:
        point = run_shard_point(replace(base, rate_hz=rate))
        points.append(point)
        if point.collapsed:
            # Open-loop queues grow without bound past this rate; higher
            # rungs only deepen the backlog.
            break
        if best is None or point.committed_ops_per_s > best.committed_ops_per_s:
            best = point
    return best if best is not None else points[-1], points


def run_shard_saturation(
    shard_counts: Sequence[int] = (1, 2, 4),
    base: Optional[ShardPointConfig] = None,
    rate_ladder: Sequence[float] = SHARD_RATE_LADDER,
) -> Dict[str, Any]:
    """Max-throughput search per shard count; report scaling vs one shard.

    Each shard count walks the offered-rate ladder independently
    (:func:`find_max_shard_throughput`), so the scaling ratio always
    compares *sustainable* throughputs.  The historical single-rate sweep
    compared every configuration at one rate deep in the 1-shard collapse
    region, which understated the baseline and let multi-shard points
    exceed the offered rate while draining warmup backlog.  Collapsed
    maxima (a shard count that collapses even at the lowest rung) are
    reported with ``collapsed: true`` and excluded from the scaling claim.

    The default configuration makes a quarter of the multi-key operations
    snapshot reads, so ``all_isolated`` is certified over real
    ``read_txn`` cuts rather than vacuously over an empty read list.
    """
    base = base or ShardPointConfig(txn_read_ratio=0.25)
    best_points: List[ShardPointResult] = []
    ladder_points: Dict[int, List[ShardPointResult]] = {}
    for count in shard_counts:
        best, measured = find_max_shard_throughput(
            replace(base, shard_count=count), rate_ladder
        )
        best_points.append(best)
        ladder_points[count] = measured
    single = next((p for p in best_points if p.shard_count == 1), best_points[0])
    scaling = {
        p.shard_count: (
            p.committed_ops_per_s / single.committed_ops_per_s
            if single.committed_ops_per_s and not (p.collapsed or single.collapsed)
            else 0.0
        )
        for p in best_points
    }
    return {
        "benchmark": "shard-saturation",
        "protocol": base.protocol,
        "rate_ladder_hz": list(rate_ladder),
        "seed": base.seed,
        "points": [p.as_dict() for p in best_points],
        "ladder": {
            str(count): [p.as_dict() for p in measured]
            for count, measured in ladder_points.items()
        },
        "scaling_vs_single": {str(k): round(v, 3) for k, v in scaling.items()},
        "all_linearizable": all(p.linearizable for p in best_points),
        "all_atomic": all(p.atomic for p in best_points),
        "all_isolated": all(p.isolated for p in best_points),
        "any_collapsed_max": any(p.collapsed for p in best_points),
    }
