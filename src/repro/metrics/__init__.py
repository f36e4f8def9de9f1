"""Measurement: completion-time and throughput statistics.

The collector records (submit, complete) pairs per request; summaries
follow the paper's methodology — discard warm-up and cool-down, report
throughput and the median completion time.
"""

from repro.metrics.stats import percentile
from repro.metrics.collector import MetricsCollector, RequestRecord, RunSummary

__all__ = [
    "MetricsCollector",
    "RequestRecord",
    "RunSummary",
    "percentile",
]
