"""Experiment harness: the system builders and the runner.

The comparisons of the paper's evaluation (§8: Figures 4-7, Table 1) are
checked by ``tests/test_paper_claims.py``, which calls
:func:`repro.bench.runner.find_max_throughput` and
:func:`repro.bench.runner.run_rate_point` directly and prints each
measured margin.
"""
