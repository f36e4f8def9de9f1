"""Experiment harness: builders, the runner, and per-figure experiments.

Every table and figure of the paper's evaluation (§8) has a corresponding
function in :mod:`repro.bench.experiments`; the ``benchmarks/`` directory
wraps them in pytest-benchmark targets.  No paper-vs-measured record is
committed: ``examples/reproduce_figures.py`` prints the measured rows.
"""
