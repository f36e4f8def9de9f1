#!/usr/bin/env python3
"""Traced run: follow client requests through a protocol with repro.obs.

Runs a small fixed-seed EPaxos workload with the observability fabric
attached: a Tracer collecting request spans + protocol phases, a
Telemetry registry with a sim-time sampler, and the exporters.  Prints
the per-phase latency report and writes a Chrome trace-event file you
can open in Perfetto (https://ui.perfetto.dev) or chrome://tracing.

Tracing is zero-cost when off (every hook is one attribute load) and
changes nothing when on: the same seed produces byte-identical commit
logs with or without the tracer attached.

Run with:  python examples/traced_run.py
"""

import tempfile

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
from repro.obs.report import build_report
from repro.protocols import build_protocol
from repro.sim.engine import Simulator
from repro.sim.topology import build_single_datacenter
from repro.workload.generator import WorkloadConfig, WorkloadGenerator


def main() -> None:
    # 1. A small simulated datacenter running EPaxos, plus a workload.
    simulator = Simulator(seed=11)
    topology = build_single_datacenter(simulator, nodes_per_rack=3, racks=3)
    protocol = build_protocol("epaxos", topology)
    generator = WorkloadGenerator(
        topology,
        WorkloadConfig(client_processes=6, aggregate_rate_hz=1500.0, write_ratio=0.4, seed=11),
    )
    collector = generator.build()

    # 2. Attach the observability fabric BEFORE starting the run.
    tracer = Tracer(lambda: simulator.now)
    attach_tracer(tracer, protocol=protocol, agents=generator.agents)
    telemetry = Telemetry()
    sampler = TelemetrySampler(telemetry, simulator, network=topology.network)
    sampler.start()

    # 3. Drive the run in sim time.
    protocol.start()
    generator.start()
    simulator.run_until(0.3)
    generator.stop()
    simulator.run_until(0.4)
    protocol.stop()
    sampler.stop()

    summary = collector.summarize(0.05, 0.3)
    print(f"Completed {summary.requests_completed} requests, "
          f"{len(tracer.spans)} spans recorded.\n")

    # 4. Render the report and export both trace formats.
    data = trace_to_dict(tracer, telemetry=telemetry)
    print(build_report(data, top=3))

    out_dir = tempfile.mkdtemp(prefix="repro-trace-")
    export_json(tracer, f"{out_dir}/trace.json", telemetry=telemetry)
    export_chrome_trace(tracer, f"{out_dir}/trace.chrome.json", telemetry=telemetry)
    print(f"\nTrace exported to {out_dir}/trace.json")
    print(f"Perfetto/chrome://tracing file: {out_dir}/trace.chrome.json")
    print(f"Deterministic trace sha256: {trace_digest(data)[:16]}...")
    print("Done.")


if __name__ == "__main__":
    main()
