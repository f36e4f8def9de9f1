"""Shared configuration for the benchmark suite.

Every benchmark regenerates one of the paper's tables or figures through
:mod:`repro.bench.experiments`.  The profiles below are deliberately small
so the whole suite finishes in minutes on a laptop; pass
``--benchmark-only`` to pytest to run them.  For the fuller runs, call the
experiment functions with
``ExperimentProfile.full()`` / ``ExperimentProfile.wan()`` (see
``examples/reproduce_figures.py``).
"""

from __future__ import annotations

from repro.bench.runner import ExperimentProfile

#: Single-datacenter benchmark profile (Figures 4 and 5, ablations).
SINGLE_DC_PROFILE = ExperimentProfile(
    warmup_s=0.08,
    measure_s=0.15,
    cooldown_s=0.05,
    client_processes=30,
    rate_ladder=(4000, 16000),
    latency_threshold_s=0.030,
    seed=11,
)

#: Wide-area benchmark profile (Figures 6 and 7).
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

#: Node counts exercised by the single-DC benchmarks.  The paper sweeps
#: 9/15/21/27; the benchmark default keeps the two endpoints so the scaling
#: trend is visible without a multi-hour run.  The 27-node point is the one
#: the fig4a assertion reasons about: at 9 nodes EPaxos (thrifty, 2 ms
#: batches) legitimately ties or edges out Canopus, and only at scale does
#: its per-commit fan-out overtake it — asserting at 9 nodes was why the
#: assertion drifted (see ROADMAP).  The multicast fast path makes the
#: 27-node sweep cheap enough to keep on by default.
BENCH_NODE_COUNTS = (9, 27)


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1, warmup_rounds=0)

# Host-side simulator speed is tracked separately from these
# modelled-behaviour benchmarks.  The perf-tracking mode in
# repro.bench.runner (PERF_POINTS / ``python -m repro.bench.runner
# --perf-point ...``) measures wall-clock, events/second and peak heap per
# fixed-seed point; CI gates four of them on every push against the
# baselines in BENCH_sim_hotpath.json.  perf/run.py measures the
# end-to-end cost per operation and its split by layer.
