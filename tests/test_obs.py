"""Tests for the observability fabric (:mod:`repro.obs`).

The three contract properties each get a direct test:

* **Determinism** — a fixed-seed traced run exports byte-identical JSON
  across two separate processes.
* **Digest neutrality** — tracing on vs off leaves the fixed-seed
  commit logs byte-identical (correlation is side-table only; nothing
  rides the wire), and the tracer alone adds zero engine events.
* **Zero cost when off** — an untraced run records nothing, and the
  traced run's wall-clock stays within a generous multiple of the
  untraced one (an explosion guard, not a micro-benchmark).

Plus coverage for the satellites: per-phase report lines for every
registry protocol, the traced perf point's report and Chrome trace,
trace slices on failed verify checks, and the RunSummary per-op-class
percentiles.
"""

import json
import pathlib
import subprocess
import sys
import time
from dataclasses import replace
from functools import partial

import pytest

from repro.bench.runner import (
    PERF_POINTS,
    ExperimentProfile,
    _commit_log_sha256,
    _execute_rate_point,
    make_single_dc_topology,
    run_traced_point,
)
from repro.metrics.collector import MetricsCollector
from repro.obs import (
    Telemetry,
    TelemetrySampler,
    Tracer,
    format_phase_slice,
    format_trace_slice,
    trace_to_dict,
)
from repro.obs.report import build_report
from repro.protocols import registered_protocols
from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.verify.history import History
from repro.verify.linearizability import check_linearizable_history

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"

#: A cheap fixed-seed point: ``ci-smoke`` with these fields replaced.
_SMALL_POINT = {"rate_hz": 2000.0, "warmup_s": 0.05, "measure_s": 0.05, "client_processes": 6, "repeats": 1}


def _small_profile() -> ExperimentProfile:
    return ExperimentProfile(
        warmup_s=0.05,
        measure_s=0.1,
        cooldown_s=0.05,
        client_processes=6,
        rate_ladder=(1500.0,),
        seed=7,
    )


def _run_small_point(system: str, tracer_holder=None, sampler: bool = False):
    """One tiny fixed-seed run of ``system``; optionally traced."""
    profile = _small_profile()
    factory = partial(make_single_dc_topology, nodes_per_rack=3, racks=3)
    config = None
    if system == "epaxos":
        from repro.epaxos.node import EPaxosConfig

        config = EPaxosConfig(batch_duration_s=0.002, latency_probing=True, thrifty=False)

    instrument = None
    if tracer_holder is not None:

        def instrument(simulator, sut, generator):
            tracer = Tracer(lambda: simulator.now)
            sut.protocol.attach_tracer(tracer)
            for agent in generator.agents:
                agent.attach_tracer(tracer)
            tracer_holder["tracer"] = tracer
            if sampler:
                telemetry = Telemetry()
                TelemetrySampler(telemetry, simulator, network=sut.topology.network).start()
                tracer_holder["telemetry"] = telemetry
            return tracer

    return _execute_rate_point(
        system, factory, 1500.0, 0.3, profile, config=config, instrument=instrument
    )


# ----------------------------------------------------------------------
# Determinism: byte-identical traces across processes
# ----------------------------------------------------------------------
def test_trace_byte_identical_across_processes(tmp_path):
    script = (
        "import sys\n"
        "from dataclasses import replace\n"
        "from repro.bench.runner import PERF_POINTS, run_traced_point\n"
        f"point = replace(PERF_POINTS['ci-smoke'], **{_SMALL_POINT!r})\n"
        "out = run_traced_point(point, sys.argv[1])\n"
        "print(out['trace_sha256'])\n"
    )
    digests = []
    for index in (1, 2):
        path = tmp_path / f"trace{index}.json"
        result = subprocess.run(
            [sys.executable, "-c", script, str(path)],
            env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"},
            capture_output=True,
            text=True,
            timeout=300,
            check=False,
        )
        assert result.returncode == 0, result.stderr
        digests.append(result.stdout.strip())
    assert digests[0] == digests[1]
    assert (tmp_path / "trace1.json").read_bytes() == (tmp_path / "trace2.json").read_bytes()


# ----------------------------------------------------------------------
# Digest neutrality: tracing cannot change modelled behaviour
# ----------------------------------------------------------------------
def test_tracing_leaves_commit_logs_identical():
    _, sut_off, summary_off = _run_small_point("epaxos")
    digest_off = _commit_log_sha256(sut_off.protocol.committed_logs())

    holder = {}
    _, sut_on, summary_on = _run_small_point("epaxos", tracer_holder=holder)
    digest_on = _commit_log_sha256(sut_on.protocol.committed_logs())

    assert digest_off == digest_on
    assert summary_off.requests_completed == summary_on.requests_completed
    assert len(holder["tracer"].spans) > 0


def test_tracer_alone_adds_zero_engine_events():
    simulator_off, _, _ = _run_small_point("canopus")
    holder = {}
    simulator_on, _, _ = _run_small_point("canopus", tracer_holder=holder)
    # The tracer only observes existing deliveries; it never schedules.
    assert simulator_on.loop.processed_events == simulator_off.loop.processed_events


# ----------------------------------------------------------------------
# Zero cost when off
# ----------------------------------------------------------------------
def test_untraced_run_records_nothing_and_stays_cheap():
    start = time.perf_counter()
    simulator, sut, _ = _run_small_point("canopus")
    wall_off = time.perf_counter() - start
    for node in sut.protocol.nodes.values():
        assert node._obs is None

    holder = {}
    start = time.perf_counter()
    _run_small_point("canopus", tracer_holder=holder)
    wall_on = time.perf_counter() - start
    assert len(holder["tracer"].spans) > 0
    # Explosion guard, not a micro-benchmark: traced runs allocate span
    # objects so they are slower, but within an order of magnitude.
    assert wall_on < max(wall_off, 0.05) * 10


# ----------------------------------------------------------------------
# Per-phase breakdown for every registry protocol
# ----------------------------------------------------------------------
@pytest.mark.parametrize("system", sorted(registered_protocols()))
def test_report_has_phase_breakdown_for_protocol(system):
    holder = {}
    _run_small_point(system, tracer_holder=holder)
    report = build_report(trace_to_dict(holder["tracer"]))
    assert f" protocol {system}:" in report, report.splitlines()[:10]
    phase_section = report.split("== Transport hops")[0]
    protocol_block = phase_section.split(f" protocol {system}:")[1]
    assert "n=" in protocol_block  # at least one phase stats line


def test_canopus_cycle_is_tiled_by_round_phases():
    """round1 + round2 cover a cycle from its start to the completion of its
    root state (the commit waits for the cycle before it when pipelining);
    the fetch span's request leaves at cycle start, so it overlaps round1."""
    holder = {}
    _run_small_point("canopus", tracer_holder=holder)
    spans = [s for s in trace_to_dict(holder["tracer"])["spans"] if s["cat"] == "phase:canopus"]
    by_cycle = {}
    for span in spans:
        if span["name"] in ("cycle", "round1", "round2"):
            by_cycle.setdefault((span["node"], span["args"]["key"]), {})[span["name"]] = span
    complete = [phases for phases in by_cycle.values() if len(phases) == 3]
    assert len(complete) > 50
    for phases in complete:
        cycle, first, second = phases["cycle"], phases["round1"], phases["round2"]
        assert first["ts_ns"] == cycle["ts_ns"]
        assert second["ts_ns"] == first["ts_ns"] + first["dur_ns"]
        assert second["ts_ns"] + second["dur_ns"] <= cycle["ts_ns"] + cycle["dur_ns"]
    starts = {(s["node"], s["args"]["key"]): s["ts_ns"] for s in spans if s["name"] == "cycle"}
    fetches = [s for s in spans if s["name"] == "fetch"]
    assert fetches
    for fetch in fetches:
        cycle_id = fetch["args"]["key"].strip("()").split(",")[0]
        assert fetch["ts_ns"] == starts[(fetch["node"], cycle_id)]
    report = build_report(trace_to_dict(holder["tracer"]))
    assert "round2" in report and "read_delay" in report
    # A read either waited for a commit or found nothing to wait for: one
    # read_delay span or one read_local point each, never both, so the two
    # counts in the report are the shares.
    waited = {s["args"]["key"] for s in spans if s["name"] == "read_delay"}
    local = [s for s in spans if s["name"] == "read_local"]
    assert local and all(s["dur_ns"] == 0 for s in local)
    assert waited and not waited & {s["args"]["key"] for s in local}
    assert "read_local" in report


def test_traced_point_reports_sampled_series_and_writes_a_chrome_trace(tmp_path):
    point = replace(PERF_POINTS["ci-smoke"], **_SMALL_POINT)
    out = run_traced_point(point, str(tmp_path / "trace.json"))
    assert out["spans"] > 0
    report = build_report(json.loads((tmp_path / "trace.json").read_text()))
    assert " protocol epaxos:" in report
    series = report.split("== Sampled timeseries ==")[1]
    for name in ("engine.depth", "host.n0-0.rx_backlog", "switch.agg-0.lane_depth"):
        assert f"  {name} " in series, series
    # The Chrome trace rides along and is valid JSON.
    chrome = json.loads((tmp_path / "trace.chrome.json").read_text())
    assert chrome["traceEvents"]


def test_traced_point_rejects_engine_points(tmp_path):
    with pytest.raises(ValueError):
        run_traced_point(PERF_POINTS["engine-microbench"], str(tmp_path / "x.json"))


# ----------------------------------------------------------------------
# Trace slices on failed verify checks
# ----------------------------------------------------------------------
class _FakeRequest:
    def __init__(self, rid, op=RequestType.WRITE, key="k"):
        self.request_id = rid
        self.op = op
        self.key = key


def test_linearizability_failure_includes_trace_slice():
    clock = [0.0]
    tracer = Tracer(lambda: clock[0])
    for rid in (101, 102):
        span = tracer.request_submitted(_FakeRequest(rid), node="c0")
        clock[0] += 0.001
        tracer.finish(span)

    history = History()
    # w(a) completes before r(b) is invoked, yet the read sees a stale value.
    history.add("c1", "write", "k", "a", 0.0, 0.1, request_id=101)
    history.add("c2", "read", "k", "stale", 0.2, 0.3, request_id=102)
    ok, message = check_linearizable_history(history, tracer=tracer)
    assert not ok
    assert "trace slice of implicated operations" in message
    assert "request #101" in message and "request #102" in message

    # Without a tracer the message stays bare.
    ok, message = check_linearizable_history(history)
    assert not ok and "trace slice" not in message


def test_phase_slice_lists_the_spans_of_each_key():
    clock = [0.0]
    tracer = Tracer(lambda: clock[0])
    for key in ("c2", "c1", "c2"):
        tracer.phase_begin("canopus", "round1", "n0", key=key)
        clock[0] += 0.002
        tracer.phase_end("canopus", "round1", "n0", key=key)
    tracer.phase_begin("canopus", "round1", "n1", key="c3")

    message = format_phase_slice(tracer, ["c2", "c1", "c1"], limit=1)
    assert message.startswith("\ntrace slice of implicated operations:\n")
    lines = message.splitlines()[2:]
    assert [line for line in lines if line.startswith("  key ")] == ["  key c1:", "  key c2:"]
    assert sum("canopus/round1 @n0 key=" in line for line in lines) == 2
    assert "    ... 1 more spans" in lines
    assert "c3" not in message


def test_format_slice_helpers_empty_when_detached():
    assert format_trace_slice(None, [1, 2]) == ""
    assert format_phase_slice(None, ["t1"]) == ""
    tracer = Tracer(lambda: 0.0)
    assert format_trace_slice(tracer, [99]) == ""
    assert format_phase_slice(tracer, ["nope"]) == ""


def test_report_lists_every_sampled_series_in_name_order():
    data = {
        "spans": [],
        "series": {
            "switch.s0.lane_depth": [(0.02, 1.0), (0.04, 3.0)],
            "engine.depth": [(0.02, 10.0), (0.04, 20.0)],
            "host.n0.rx_backlog": [],
        },
    }
    lines = build_report(data).splitlines()
    rows = lines[lines.index("== Sampled timeseries ==") + 1:]
    assert [row.split()[0] for row in rows] == ["engine.depth", "switch.s0.lane_depth"]
    assert rows[0].split()[1:] == ["n=", "2", "min=", "10.00", "mean=", "15.00", "max=", "20.00"]


def test_sampler_without_a_network_samples_only_the_engine_on_its_grid():
    from repro.sim.engine import Simulator

    simulator = Simulator(seed=1)
    telemetry = Telemetry()
    sampler = TelemetrySampler(telemetry, simulator, interval_s=0.01)
    sampler.start()
    sampler.start()  # a second start arms no second timer
    simulator.run_until(0.055)
    sampler.stop()
    simulator.run_until(0.1)
    assert list(telemetry.series) == ["engine.depth"]
    assert [round(when, 6) for when, _ in telemetry.series["engine.depth"]] == [
        0.01, 0.02, 0.03, 0.04, 0.05]
    assert sampler.samples_taken == 5


@pytest.mark.parametrize("interval_s", [0.0, -0.01])
def test_sampler_rejects_a_non_positive_interval(interval_s):
    with pytest.raises(ValueError):
        TelemetrySampler(Telemetry(), object(), interval_s=interval_s)


# ----------------------------------------------------------------------
# RunSummary per-op-class percentiles
# ----------------------------------------------------------------------
def test_run_summary_per_op_class_percentiles():
    collector = MetricsCollector()
    for index in range(100):
        op = RequestType.READ if index % 2 == 0 else RequestType.WRITE
        request = ClientRequest(client_id="c", op=op, key="k", value="v", submitted_at=0.01)
        collector.record_submit(request)
        # Reads complete in 1..50 ms, writes in 2..100 ms.
        latency = ((index // 2) + 1) * (0.001 if op is RequestType.READ else 0.002)
        reply = ClientReply(
            request_id=request.request_id,
            client_id="c",
            op=op,
            key="k",
            value="v",
            committed_cycle=None,
            server_id="s",
        )
        collector.record_reply(reply, completed_at=0.01 + latency)
    summary = collector.summarize(0.0, 1.0)
    as_dict = summary.as_dict()
    for key in ("read_p95_ms", "read_p99_ms", "write_p95_ms", "write_p99_ms"):
        assert key in as_dict
    assert summary.read_p95_s <= summary.read_p99_s <= 0.05 + 1e-9
    assert summary.write_p95_s <= summary.write_p99_s <= 0.1 + 1e-9
    assert as_dict["write_p95_ms"] > as_dict["read_p95_ms"]


# ----------------------------------------------------------------------
# Tracer bookkeeping details
# ----------------------------------------------------------------------
def test_phase_side_table_tolerates_reentry_and_missing_end():
    clock = [0.0]
    tracer = Tracer(lambda: clock[0])
    tracer.phase_begin("p", "fetch", "n0", key=1)
    clock[0] = 0.01
    tracer.phase_begin("p", "fetch", "n0", key=1)  # re-entry closes the stale span
    clock[0] = 0.02
    tracer.phase_end("p", "fetch", "n0", key=1)
    tracer.phase_end("p", "fetch", "n0", key=1)  # missing end: no-op
    tracer.phase_end("p", "never-opened", "n0", key=2)
    assert tracer.open_span_count() == 0
    assert [span.duration for span in tracer.spans] == [pytest.approx(0.01), pytest.approx(0.01)]


def test_request_span_links_hops_and_phases():
    holder = {}
    _run_small_point("epaxos", tracer_holder=holder)
    tracer = holder["tracer"]
    roots = [s for s in tracer.spans if s.category == "request"]
    assert roots, "no request roots recorded"
    completed = [s for s in roots if s.end is not None]
    assert completed, "no request completed"
    rid = completed[0].args["rid"]
    linked = tracer.spans_for_request(rid)
    categories = {span.category for span in linked}
    assert "request" in categories
    assert "hop" in categories, categories
    assert any(cat.startswith("phase:") for cat in categories), categories
