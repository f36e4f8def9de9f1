"""Per-shard metrics aggregation for sharded deployments.

:class:`ShardMetrics` taps the :class:`~repro.shard.cluster.ShardedCluster`
reply plane and keeps one completion stream per shard, separating *data*
operations from ``__txn__/`` control-record traffic so throughput numbers
measure useful work.  The bench harness reads per-shard committed-ops/s out
of a steady-state window from here, and merges in the router's transaction
counters plus each shard protocol's own stats for the full picture.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.runtime.messages import ClientReply, RequestType
from repro.shard.cluster import ShardedCluster
from repro.shard.router import ShardRouter, txn_marker_kind

__all__ = ["ShardMetrics"]


class ShardMetrics:
    """Counts per-shard completions; attach with ``ShardMetrics(cluster)``."""

    def __init__(self, cluster: ShardedCluster) -> None:
        self.cluster = cluster
        #: Completion timestamps of data (non-control) ops, per shard, in
        #: arrival order — which is non-decreasing in simulated time.
        self._completions: Dict[str, List[float]] = {s: [] for s in cluster.shard_ids}
        self._reads: Dict[str, int] = {s: 0 for s in cluster.shard_ids}
        self._writes: Dict[str, int] = {s: 0 for s in cluster.shard_ids}
        self._control: Dict[str, int] = {s: 0 for s in cluster.shard_ids}
        #: Per-shard queue-depth samples recorded by sample_queue_depths.
        self._queue_depths: Dict[str, List[Tuple[float, float]]] = {}
        cluster.add_reply_listener(self._on_reply)

    # ------------------------------------------------------------------
    def _on_reply(self, shard_id: str, reply: ClientReply) -> None:
        if txn_marker_kind(reply.key) is not None:
            self._control[shard_id] += 1
            return
        self._completions[shard_id].append(reply.completed_at)
        if reply.op is RequestType.READ:
            self._reads[shard_id] += 1
        else:
            self._writes[shard_id] += 1

    # ------------------------------------------------------------------
    def ops_in_window(self, start: float, end: float) -> Dict[str, int]:
        """Data ops completed in ``[start, end]``, per shard."""
        window: Dict[str, int] = {}
        for shard_id, times in self._completions.items():
            window[shard_id] = bisect_right(times, end) - bisect_left(times, start)
        return window

    def throughput_rps(self, start: float, end: float) -> Dict[str, float]:
        """Per-shard committed data-ops/second over the window."""
        duration = max(end - start, 1e-9)
        return {s: count / duration for s, count in self.ops_in_window(start, end).items()}

    def total_ops_in_window(self, start: float, end: float) -> int:
        return sum(self.ops_in_window(start, end).values())

    # ------------------------------------------------------------------
    # Windowed timeseries (the signal a load-driven autoscaler would watch)
    # ------------------------------------------------------------------
    def goodput_timeseries(
        self, start: float, end: float, bucket_s: float
    ) -> Dict[str, List[Tuple[float, float]]]:
        """Per-shard goodput sampled on a bucket grid over ``[start, end]``.

        Returns ``{shard: [(bucket_end, ops_per_s), ...]}`` — the signal a
        load-driven autoscaler watches for hot/cold shards, and what the
        obs report renders per shard.
        """
        if bucket_s <= 0:
            raise ValueError("bucket_s must be positive")
        series: Dict[str, List[Tuple[float, float]]] = {}
        for shard_id, times in self._completions.items():
            points: List[Tuple[float, float]] = []
            lo = start
            while lo < end:
                hi = min(lo + bucket_s, end)
                count = bisect_right(times, hi) - bisect_left(times, lo)
                points.append((hi, count / max(hi - lo, 1e-9)))
                lo = hi
            series[shard_id] = points
        return series

    def sample_queue_depths(self, now: float) -> Dict[str, float]:
        """Sample each shard's total replica rx backlog (and record it).

        Depth is the sum over the shard's server hosts of queued-but-not-
        dispatched packets (ingress lane + CPU dispatch queue).  Each call
        appends to :meth:`queue_depth_series`; the
        :class:`repro.obs.TelemetrySampler` calls this on its grid.
        """
        hosts = self.cluster.topology.network.hosts
        depths: Dict[str, float] = {}
        for shard_id, node_ids in self.cluster.assignment.items():
            depth = 0
            for node_id in node_ids:
                host = hosts.get(node_id)
                if host is not None:
                    depth += host.backlog()
            depths[shard_id] = float(depth)
            self._queue_depths.setdefault(shard_id, []).append((now, float(depth)))
        return depths

    def queue_depth_series(self) -> Dict[str, List[Tuple[float, float]]]:
        """Recorded per-shard queue-depth samples ``[(t, depth), ...]``."""
        return {shard: list(points) for shard, points in self._queue_depths.items()}

    # ------------------------------------------------------------------
    def summary(
        self,
        window_start: float,
        window_end: float,
        router: Optional[ShardRouter] = None,
    ) -> Dict[str, object]:
        """One aggregation dict: reply-plane, protocol and router counters."""
        per_shard = {
            shard_id: {
                "ops_in_window": ops,
                "reads": self._reads[shard_id],
                "writes": self._writes[shard_id],
                "control_records": self._control[shard_id],
                "protocol": self.cluster.shards[shard_id].name,
                "nodes": len(self.cluster.shards[shard_id].node_ids()),
            }
            for shard_id, ops in self.ops_in_window(window_start, window_end).items()
        }
        duration = max(window_end - window_start, 1e-9)
        total_ops = sum(entry["ops_in_window"] for entry in per_shard.values())
        result: Dict[str, object] = {
            "shards": per_shard,
            "total_ops_in_window": total_ops,
            "committed_ops_per_s": total_ops / duration,
            "protocol_stats": self.cluster.per_shard_stats(),
        }
        if router is not None:
            result["router"] = dict(router.stats)
        return result
