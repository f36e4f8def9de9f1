"""Experiment harness: builders, the runner, and per-figure experiments.

Every table and figure of the paper's evaluation (§8) has a corresponding
function in :mod:`repro.bench.experiments`; the ``benchmarks/`` directory
wraps them in pytest-benchmark targets.  No paper-vs-measured record is
committed: ``examples/reproduce_figures.py`` prints the measured rows.
"""

from repro.bench.builders import SystemUnderTest, build_system, scaled_cpu_model
from repro.bench.runner import ExperimentProfile, RatePointResult, find_max_throughput, run_rate_point
from repro.bench.report import format_table

__all__ = [
    "SystemUnderTest",
    "build_system",
    "scaled_cpu_model",
    "ExperimentProfile",
    "RatePointResult",
    "run_rate_point",
    "find_max_throughput",
    "format_table",
]
