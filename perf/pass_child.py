"""One pass of one workload, in a process of its own.

``run.py`` starts this file as ``python pass_child.py '<spec json>'`` with
``src/`` on ``PYTHONPATH`` and reads one JSON object from its stdout.  A
fresh process per pass gives a clean peak RSS, no heap carried over from
the previous pass, and a request-id counter that starts at the same value.

A pass runs the rungs named in the spec; every rung is a fresh
``Simulator(seed)`` built and driven only through the repo's public API,
with every call into a layer wrapped in a span and timed from outside.
``mode`` is ``timed`` (nothing attached), ``profile`` (cProfile around the
``run_until`` calls) or ``obs`` (``repro.obs.Tracer`` attached).
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import json
import random
import resource
import sys
import time
from typing import Any, Dict, Iterator, List, Optional

import layers
import workloads

#: Taken before ``import repro``: set-up time includes that import.
_ORIGIN = time.perf_counter()


class Spans:
    """In-memory span recorder for the calls this file makes into a layer."""

    def __init__(self) -> None:
        self.rows: List[Dict[str, Any]] = []
        self._open: List[int] = []
        self.rung: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Dict[str, Any]]:
        row = {
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "rung": self.rung,
            "start": time.perf_counter() - _ORIGIN,
            "end": None,
        }
        self._open.append(len(self.rows))
        self.rows.append(row)
        try:
            yield row
        finally:
            row["end"] = time.perf_counter() - _ORIGIN
            self._open.pop()


def _seconds(row: Dict[str, Any]) -> float:
    return row["end"] - row["start"]


def commit_log_sha256(logs: Dict[str, List[int]]) -> str:
    """Fingerprint of every replica's commit log, ids rebased to the run's
    smallest — the normalization ``BENCH_sim_hotpath.json`` digests use."""
    base = min((i for log in logs.values() for i in log), default=0)
    normalized = {node: [i - base for i in log] for node, log in sorted(logs.items())}
    return hashlib.sha256(json.dumps(normalized, sort_keys=True).encode("utf-8")).hexdigest()


def run_rung(
    workload: workloads.Workload, rate: int, seed: int, mode: str, check_history: bool, spans: Spans
) -> Dict[str, Any]:
    from repro.bench.builders import build_system, make_single_dc_topology
    from repro.metrics.stats import mean, percentile
    from repro.sim.engine import Simulator
    from repro.verify import check_agreement, check_linearizable_history
    from repro.workload.generator import WorkloadConfig, WorkloadGenerator

    spans.rung = rate
    warmup_s, measure_s, cooldown_s = workload.windows
    window_end = warmup_s + measure_s
    tracer = None

    with spans.span("setup"):
        with spans.span("build_topology") as build_topology:
            simulator = Simulator(seed=seed)
            topology = make_single_dc_topology(
                simulator, nodes_per_rack=workload.nodes_per_rack, racks=workload.RACKS
            )
        with spans.span("build_system") as build_protocol:
            sut = build_system(workload.system, topology, config=workload.make_config())
        with spans.span("WorkloadGenerator.build") as build_workload:
            generator = WorkloadGenerator(
                topology,
                WorkloadConfig(
                    client_processes=workloads.CLIENT_PROCESSES,
                    aggregate_rate_hz=rate,
                    write_ratio=workload.write_ratio,
                    key_count=workloads.KEY_COUNT,
                    seed=seed,
                ),
            )
            generator.rng = random.Random(workloads.BINDING_SEED)
            collector = generator.build()
        if mode == "obs":
            from repro.obs import Tracer, attach_tracer

            tracer = attach_tracer(
                Tracer(lambda: simulator.now), protocol=sut.protocol, agents=generator.agents
            )
        with spans.span("start"):
            sut.start()
            generator.start()

    profiler = None
    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    # The repo's convention for timed regions: no cyclic-GC pauses, and the
    # pre-run heap frozen out of generation scans.
    gc.disable()
    gc.freeze()
    try:
        if profiler is not None:
            profiler.enable()
        with spans.span("run_until.warmup") as run_warmup:
            simulator.run_until(warmup_s)
        with spans.span("run_until.measure") as run_measure:
            simulator.run_until(window_end)
        with spans.span("generator.stop"):
            generator.stop()
        with spans.span("run_until.cooldown") as run_cooldown:
            simulator.run_until(window_end + cooldown_s)
        if profiler is not None:
            profiler.disable()
    finally:
        gc.unfreeze()
        gc.enable()
    sut.stop()

    with spans.span("summarize") as summarize:
        summary = collector.summarize(warmup_s, window_end)
    with spans.span("committed_logs"):
        logs = sut.protocol.committed_logs()
    # Replica logs agree (and completed-op histories are complete) only at
    # quiescence.  An over-saturated rung is cut with requests in flight:
    # there EPaxos replicas hold different executed *sets*, so their
    # canonically ordered logs are not prefixes of one another.  Such a rung
    # is reported as skipped, never as a pass.
    in_flight = generator.total_sent() - generator.total_completed()
    checks: Dict[str, str] = {}
    timings_ms = {"agreement": 0.0, "linearizability": 0.0}
    if in_flight:
        checks["agreement"] = f"skipped ({in_flight} ops in flight at the cut)"
    else:
        with spans.span("check_agreement") as agreement:
            ok, message = check_agreement(logs)
        checks["agreement"] = "pass" if ok else f"FAIL: {message}"
        timings_ms["agreement"] = _seconds(agreement) * 1e3
    if check_history:
        consistency = sut.protocol.read_consistency()
        if consistency != "linearizable":
            checks["linearizability"] = f"skipped ({consistency} reads)"
        elif in_flight:
            checks["linearizability"] = f"skipped ({in_flight} ops in flight at the cut)"
        else:
            with spans.span("check_linearizable_history") as linearizability:
                ok, message = check_linearizable_history(collector.to_history())
            checks["linearizability"] = "pass" if ok else f"FAIL: {message}"
            timings_ms["linearizability"] = _seconds(linearizability) * 1e3

    in_window = [
        record for record in collector.records.values()
        if warmup_s <= record.submitted_at <= window_end
    ]
    # The population ``summarize`` takes its percentiles over.
    completion_times = [
        record.completion_time for record in collector.completed_records()
        if warmup_s <= record.completed_at <= window_end
    ]
    network = topology.network
    elapsed = simulator.now
    rung: Dict[str, Any] = {
        "rate": rate,
        "wall_s": _seconds(run_warmup) + _seconds(run_measure) + _seconds(run_cooldown),
        "ops_completed": generator.total_completed(),
        "window_submitted": len(in_window),
        "window_unanswered": sum(1 for record in in_window if record.completed_at is None),
        "sim": {
            "samples": summary.requests_completed,
            "mean_ms": mean(completion_times) * 1e3,
            "p50_ms": summary.median_completion_s * 1e3,
            "p99_ms": summary.p99_completion_s * 1e3,
            "goodput_ops_s": summary.throughput_rps,
            "read_p50_ms": summary.read_median_s * 1e3,
            "write_p50_ms": summary.write_median_s * 1e3,
            "duration_s": elapsed,
        },
        "counters": {
            "events": simulator.loop.processed_events,
            "link_packets": sum(link.packets_sent for link in network.links.values()),
            "link_bytes": sum(link.bytes_sent for link in network.links.values()),
            "switch_forwards": sum(s.packets_forwarded for s in network.switches.values()),
            "dropped_packets": network.dropped_packets,
            "max_host_cpu_utilization": max(
                host.cpu_utilization(elapsed) for host in network.hosts.values()
            ),
            "max_link_utilization": max(
                link.utilization(elapsed) for link in network.links.values()
            ),
            "records": len(collector.records),
            "node_count": len(logs),
            "stats": sut.protocol.stats(),
        },
        "timings_ms": {
            "build_topology": _seconds(build_topology) * 1e3,
            "build_protocol": _seconds(build_protocol) * 1e3,
            "build_workload": _seconds(build_workload) * 1e3,
            "summarize": _seconds(summarize) * 1e3,
            **timings_ms,
        },
        "checks": checks,
        "commit_log_sha256": commit_log_sha256(logs),
    }
    if profiler is not None:
        import pstats

        rung["profile_layers"] = layers.bucket(pstats.Stats(profiler).stats)
    if tracer is not None:
        hops = [
            span.end - span.start
            for span in tracer.spans
            if span.category == "hop" and span.end is not None
        ]
        rung["obs"] = {
            "span_count": len(tracer.spans),
            "hop_p50_us": percentile(hops, 0.5) * 1e6,
            "hop_p99_us": percentile(hops, 0.99) * 1e6,
        }
    return rung


def main() -> int:
    spec = json.loads(sys.argv[1])
    workload = workloads.get(spec["workload"], smoke=spec["smoke"])
    spans = Spans()
    with spans.span("import") as importing:
        import repro.bench.builders  # noqa: F401
        import repro.verify  # noqa: F401
        import repro.workload.generator  # noqa: F401
    rungs = []
    for index in spec["rungs"]:
        rungs.append(
            run_rung(
                workload,
                workload.ladder[index],
                spec["seed"],
                spec["mode"],
                check_history=index == workload.NOMINAL,
                spans=spans,
            )
        )
        # Drop the finished rung's object graph (cyclic, so refcounts alone
        # keep it) before the next one is built: peak RSS is then the
        # largest rung, not their sum.
        gc.collect()
    setups = [row for row in spans.rows if row["name"] == "setup"]
    result = {
        # From before ``import repro`` to the first rung started, plus the
        # build-and-start time of the other rungs.
        "setup_s": setups[0]["end"] + sum(_seconds(row) for row in setups[1:]),
        "import_s": _seconds(importing),
        "rungs": rungs,
        "spans": spans.rows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
