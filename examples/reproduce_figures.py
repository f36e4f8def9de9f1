#!/usr/bin/env python3
"""Regenerate the paper's tables and figures from the command line.

This is the "full" entry point behind the pytest benchmarks: it calls the
experiment functions in :mod:`repro.bench.experiments` and prints the rows
each figure plots.  Select experiments and effort with command-line flags:

    python examples/reproduce_figures.py --experiment fig4a --profile quick
    python examples/reproduce_figures.py --experiment fig6  --profile wan
    python examples/reproduce_figures.py --experiment all   --profile quick

The ``full``/``wan`` profiles are the publication-length runs; ``quick``
finishes in a few minutes.
"""

import argparse
import sys

from repro.bench.experiments import (
    ablation_lot_shape,
    ablation_read_leases,
    figure4a_single_dc_throughput,
    figure4b_single_dc_completion_time,
    figure5_zookeeper_comparison,
    figure6_multi_dc,
    figure7_write_ratio,
    storage_sensitivity,
    table1_latency_matrix,
)
from repro.bench.report import format_results
from repro.bench.runner import ExperimentProfile
from repro.sim.latencies import EC2_REGIONS

EXPERIMENTS = {
    "table1": (
        "Table 1: inter-datacenter latencies (ms)",
        lambda profile: table1_latency_matrix(),
        ["region", *EC2_REGIONS],
    ),
    "fig4a": (
        "Figure 4(a): single-DC maximum throughput",
        lambda profile: figure4a_single_dc_throughput(profile=profile),
        ["system", "nodes", "write_ratio", "throughput_rps", "median_completion_ms"],
    ),
    "fig4b": (
        "Figure 4(b): median completion time at ~70% load",
        lambda profile: figure4b_single_dc_completion_time(profile=profile),
        ["system", "nodes", "operating_rate_hz", "median_completion_ms"],
    ),
    "fig5": (
        "Figure 5: ZKCanopus vs ZooKeeper",
        lambda profile: figure5_zookeeper_comparison(profile=profile),
        ["system", "nodes", "offered_rate_hz", "throughput_rps", "median_completion_ms"],
    ),
    "fig6": (
        "Figure 6: multi-datacenter throughput/latency",
        lambda profile: figure6_multi_dc(profile=profile),
        ["system", "datacenters", "throughput_rps", "median_completion_ms"],
    ),
    "fig7": (
        "Figure 7: write-ratio sweep",
        lambda profile: figure7_write_ratio(profile=profile),
        ["system", "write_ratio", "throughput_rps", "median_completion_ms"],
    ),
    "storage": (
        "§8.1 storage sensitivity",
        lambda profile: storage_sensitivity(profile=profile),
        ["system", "throughput_rps", "median_completion_ms"],
    ),
    "lot-shape": (
        "Ablation: LOT height",
        lambda profile: ablation_lot_shape(profile=profile),
        ["system", "lot_height", "throughput_rps", "median_completion_ms"],
    ),
    "read-leases": (
        "Ablation: write leases (§7.2)",
        lambda profile: ablation_read_leases(profile=profile),
        ["system", "read_median_ms", "median_completion_ms"],
    ),
}

PROFILES = {
    "quick": ExperimentProfile.quick,
    "full": ExperimentProfile.full,
    "wan": ExperimentProfile.wan,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--experiment", default="table1", choices=[*EXPERIMENTS, "all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--profile", default="quick", choices=list(PROFILES),
                        help="measurement effort (quick for a smoke run, full/wan for the long ones)")
    args = parser.parse_args(argv)

    profile = PROFILES[args.profile]()
    selected = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    for name in selected:
        title, runner, columns = EXPERIMENTS[name]
        print(f"\n=== {title} ===")
        rows = runner(profile)
        print(format_results(rows, columns))
    return 0


if __name__ == "__main__":
    sys.exit(main())
