"""Tests for the experiment harness: builders, the runner and its perf-tracking points."""

import json
import pathlib
from functools import partial
from operator import attrgetter

import pytest

from repro.bench.builders import build_system, make_multi_dc_topology, make_single_dc_topology, scaled_cpu_model
from repro.bench.runner import ExperimentProfile, RatePointResult, find_max_throughput, run_rate_point
from repro.kvstore import KVStore
from repro.metrics.collector import RunSummary
from repro.protocols import registered_protocols
from repro.sim.engine import Simulator


TINY = ExperimentProfile(
    warmup_s=0.05,
    measure_s=0.15,
    cooldown_s=0.02,
    client_processes=12,
    rate_ladder=(1500, 3000),
    latency_threshold_s=0.05,
    seed=3,
)

#: The perf ledger CI's perf steps gate on.
LEDGER = pathlib.Path(__file__).resolve().parents[1] / "BENCH_sim_hotpath.json"


class TestBuilders:
    def test_every_system_builds_on_single_dc(self):
        for name in ("canopus", "zkcanopus", "epaxos", "zookeeper"):
            topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
            sut = build_system(name, topology)
            assert len(sut.protocol.node_ids()) == 9
            sut.start()
            sut.stop()

    def test_unknown_system_rejected(self):
        topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
        with pytest.raises(ValueError):
            build_system("viewstamped-replication", topology)

    def test_zkcanopus_attaches_a_store_per_node(self):
        topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
        sut = build_system("zkcanopus", topology)
        stores = sut.protocol.stores
        assert set(stores) == set(topology.server_hosts)
        assert list(stores.values()) == [node.store for node in sut.protocol.nodes.values()]

    @pytest.mark.parametrize("name", registered_protocols())
    def test_every_node_owns_its_own_store(self, name):
        """A store shared between nodes would make every replica-state
        comparison agree trivially."""
        topology = make_single_dc_topology(Simulator(seed=1), nodes_per_rack=3)
        protocol = build_system(name, topology).protocol
        stores = protocol.stores
        assert list(stores) == list(protocol.nodes)
        assert all(type(store) is KVStore for store in stores.values())
        assert len({id(store) for store in stores.values()}) == len(protocol.nodes)
        assert all(store.snapshot() == {} for store in stores.values())

    def test_multi_dc_topology_builder(self):
        topology = make_multi_dc_topology(Simulator(seed=1), datacenters=3)
        assert len(topology.datacenters) == 3
        assert len(topology.server_hosts) == 9

    def test_scaled_cpu_model_is_slower_than_default(self):
        assert scaled_cpu_model().per_message_s > 4e-6


class TestRunner:
    def test_run_rate_point_produces_summary(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        point = run_rate_point("canopus", factory, rate_hz=1500, write_ratio=0.2, profile=TINY)
        assert point.node_count == 9
        assert point.summary.requests_completed > 0
        assert point.throughput_rps > 0
        assert point.median_completion_ms >= 0

    def test_rate_point_as_dict_has_expected_columns(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        point = run_rate_point("zookeeper", factory, rate_hz=1500, write_ratio=0.2, profile=TINY)
        data = point.as_dict()
        for column in ("system", "offered_rate_hz", "throughput_rps", "median_completion_ms"):
            assert column in data

    def test_find_max_throughput_returns_best_and_all_points(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        best, points = find_max_throughput("canopus", factory, write_ratio=0.2, profile=TINY)
        assert 1 <= len(points) <= len(TINY.rate_ladder)
        assert best in points
        assert best.throughput_rps == max(
            p.throughput_rps
            for p in points
            if p.summary.median_completion_s <= TINY.latency_threshold_s
            or p is points[-1]
        )

    def test_run_rate_point_requires_a_profile(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        with pytest.raises(TypeError, match="profile"):
            run_rate_point("canopus", factory, rate_hz=1500, write_ratio=0.2)

    def test_find_max_throughput_requires_a_profile(self):
        factory = partial(make_single_dc_topology, nodes_per_rack=3)
        with pytest.raises(TypeError, match="profile"):
            find_max_throughput("canopus", factory, write_ratio=0.2)


def point_with(median_s, submitted=100, completed=100):
    summary = RunSummary(
        requests_submitted=submitted,
        requests_completed=completed,
        duration_s=1.0,
        throughput_rps=float(completed),
        median_completion_s=median_s,
        p95_completion_s=median_s,
        p99_completion_s=median_s,
        read_median_s=median_s,
        write_median_s=median_s,
    )
    return RatePointResult("stub", 1000, 0.2, 9, summary)


class TestProfileSaturation:
    """Where :meth:`ExperimentProfile.saturates` draws its two lines."""

    PROFILE = ExperimentProfile(latency_threshold_s=0.030, min_goodput_ratio=0.85)

    def test_a_median_at_the_threshold_keeps_up(self):
        assert not self.PROFILE.saturates(point_with(0.030))
        assert self.PROFILE.saturates(point_with(0.0301))

    def test_goodput_at_the_minimum_ratio_keeps_up(self):
        assert not self.PROFILE.saturates(point_with(0.001, completed=85))
        assert self.PROFILE.saturates(point_with(0.001, completed=84))

    def test_a_point_with_nothing_submitted_counts_as_full_goodput(self):
        assert not self.PROFILE.saturates(point_with(0.001, submitted=0, completed=0))


class TestRateLadderWalk:
    """The ladder walk of :func:`find_max_throughput`, over a stub measurement.

    A plan maps each rung's rate to ``(throughput, why it saturates)``,
    ``None`` for a rung that keeps up.  The stub replaces
    :func:`run_rate_point`, so the search runs with the profile's
    saturation predicate and no simulation.
    """

    @pytest.fixture
    def search(self, monkeypatch):
        import repro.bench.runner as runner

        def run(plan):
            measured = []

            def rate_point(system, factory, rate, write_ratio, **_):
                measured.append(rate)
                throughput, why = plan[rate]
                summary = RunSummary(
                    requests_submitted=100,
                    requests_completed=50 if why == "goodput" else 100,
                    duration_s=1.0,
                    throughput_rps=throughput,
                    median_completion_s=1.0 if why == "latency" else 0.001,
                    p95_completion_s=0.0,
                    p99_completion_s=0.0,
                    read_median_s=0.0,
                    write_median_s=0.0,
                )
                return RatePointResult(system, rate, write_ratio, 9, summary)

            monkeypatch.setattr(runner, "run_rate_point", rate_point)
            profile = ExperimentProfile(rate_ladder=tuple(plan), latency_threshold_s=0.05)
            best, points = find_max_throughput("stub", None, 0.2, profile=profile)
            assert best in points
            rate = attrgetter("aggregate_rate_hz")
            return rate(best), [rate(point) for point in points], measured

        return run

    def test_stops_at_the_first_saturated_rung(self, search):
        plan = {1000: (900, None), 2000: (1800, None), 3000: (2000, "latency"), 4000: (2500, None)}
        _, points, measured = search(plan)
        assert measured == points == [1000, 2000, 3000]

    def test_returns_the_best_unsaturated_point_and_every_measured_one(self, search):
        plan = {1000: (950, None), 2000: (900, None), 3000: (2600, "goodput")}
        best, points, _ = search(plan)
        assert best == 1000
        assert points == [1000, 2000, 3000]

    def test_a_saturated_first_rung_is_returned_as_the_best(self, search):
        plan = {1000: (500, "goodput"), 2000: (1800, None)}
        best, points, measured = search(plan)
        assert best == 1000
        assert points == measured == [1000]


class TestPerfTrackingPoints:
    @pytest.mark.parametrize(
        "name, size, digest, events",
        [
            ("engine-microbench", {"engine_ops": 2000}, "6a114a1f", 2378),
            ("switch-drain", {"drain_ops": 2000}, "88a8fb45", 2147),
        ],
    )
    def test_microbench_digest_is_pinned(self, name, size, digest, events):
        """Both runs reproduce the digest and event count recorded for the point."""
        from dataclasses import replace

        from repro.bench.runner import PERF_POINTS, run_perf_tracking

        point = replace(PERF_POINTS[name], repeats=1, **size)
        first = run_perf_tracking(point)
        second = run_perf_tracking(point)
        assert first["commit_log_sha256"].startswith(digest)
        assert first["commit_log_sha256"] == second["commit_log_sha256"]
        assert first["events"] == second["events"] == events

    def test_empty_digest_skips_the_digest_gate(self, tmp_path):
        from repro.bench.runner import update_perf_report

        path = str(tmp_path / "report.json")
        base = {"wall_s": 1.0, "events_per_s": 100, "commit_log_sha256": ""}
        update_perf_report(path, "p", dict(base), set_baseline=True)
        entry = update_perf_report(path, "p", dict(base, events_per_s=90))
        assert "commit_logs_match_baseline" not in entry


class TestLedgerPins:
    """Each point CI's perf steps run reproduces the baseline the ledger records for it."""

    @pytest.mark.parametrize("name", ["ci-smoke", "engine-microbench", "switch-drain"])
    def test_point_reproduces_its_committed_baseline(self, name):
        from repro.bench.runner import PERF_POINTS, perf_point_runner

        baseline = json.loads(LEDGER.read_text())["points"][name]["baseline"]
        events, digest, completed = perf_point_runner(PERF_POINTS[name])()
        assert (digest, events, completed) == (
            baseline["commit_log_sha256"],
            baseline["events"],
            baseline["requests_completed"],
        )


def test_the_runner_takes_exactly_its_five_options():
    from repro.bench.runner import build_parser

    options = {
        option
        for action in build_parser()._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert options == {"--perf-point", "--report", "--fail-below", "--set-baseline", "--trace"}


class TestLedgerGate:
    """Without ``--set-baseline`` the perf gate refuses a report it cannot
    compare with, before measuring anything, and leaves the file as it was."""

    @pytest.fixture(autouse=True)
    def nothing_is_measured(self, monkeypatch):
        import repro.bench.runner as runner

        def measure(*args, **kwargs):
            pytest.fail("the gate measured before checking the report")

        monkeypatch.setattr(runner, "run_perf_tracking", measure)

    def gate(self, report, *extra):
        from repro.bench.runner import main

        return main(["--perf-point", "switch-drain", "--report", str(report), "--fail-below", "0.7", *extra])

    def test_a_missing_report_fails(self, tmp_path, capsys):
        report = tmp_path / "BENCH.json"
        assert self.gate(report) == 2
        assert str(report) in capsys.readouterr().out
        assert not report.exists()

    @pytest.mark.parametrize("extra", [(), ("--set-baseline",)])
    def test_an_unreadable_report_fails_and_is_never_overwritten(self, tmp_path, capsys, extra):
        report = tmp_path / "BENCH.json"
        report.write_text("{not json")
        assert self.gate(report, *extra) == 2
        assert str(report) in capsys.readouterr().out
        assert report.read_text() == "{not json"

    def test_a_report_without_the_point_fails(self, tmp_path, capsys):
        ledger = json.loads(LEDGER.read_text())
        del ledger["points"]["switch-drain"]
        report = tmp_path / "BENCH.json"
        report.write_text(json.dumps(ledger))
        before = report.read_bytes()
        assert self.gate(report) == 2
        assert "'switch-drain'" in capsys.readouterr().out
        assert report.read_bytes() == before
