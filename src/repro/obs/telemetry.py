"""Periodic sim-time sampling of live queue state.

:class:`Telemetry` holds name-keyed timeseries; :class:`TelemetrySampler`
walks the live simulation on a fixed sim-time grid and records the queue
state the end-of-run summaries cannot see: event-loop depth, per-host rx
backlog, switch lane depth, and per-shard windowed goodput.

Determinism note: the sampler schedules real engine events, but its
callback only *reads* state and reschedules itself — it never draws from a
shared RNG or mutates protocol/network state, and every event it adds
shifts the engine's schedule sequence uniformly for all later events, so
pairwise ordering of protocol events (and therefore commit logs) is
unchanged.  The tracer alone (no sampler) adds zero engine events.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

__all__ = ["Telemetry", "TelemetrySampler"]


class Telemetry:
    """Recorded timeseries samples, keyed by series name."""

    def __init__(self) -> None:
        #: series name -> [(sim_time, value), ...] in sample order.
        self.series: Dict[str, List[Tuple[float, float]]] = {}

    def sample(self, name: str, when: float, value: float) -> None:
        """Append one timeseries point (``when`` is sim time)."""
        self.series.setdefault(name, []).append((when, value))


class TelemetrySampler:
    """Samples live queue state on a fixed sim-time grid.

    Wire it to whatever the run has: ``simulator`` is required (clock +
    timer source); ``network`` adds per-host rx backlog and switch lane
    depth; ``shard_metrics`` adds per-shard windowed goodput (the signal a
    load-driven autoscaler would watch).
    """

    def __init__(
        self,
        telemetry: Telemetry,
        simulator: Any,
        interval_s: float = 0.02,
        network: Optional[Any] = None,
        shard_metrics: Optional[Any] = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError("interval_s must be positive")
        self.telemetry = telemetry
        self.simulator = simulator
        self.interval_s = interval_s
        self.network = network
        self.shard_metrics = shard_metrics
        self.samples_taken = 0
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self.simulator.schedule(self.interval_s, self._tick)

    def stop(self) -> None:
        """Stop sampling; the pending timer fires once more as a no-op."""
        self._running = False

    def _tick(self) -> None:
        if not self._running:
            return
        self._sample_once()
        self.simulator.schedule(self.interval_s, self._tick)

    def _sample_once(self) -> None:
        now = self.simulator.now
        telemetry = self.telemetry
        self.samples_taken += 1
        telemetry.sample("engine.depth", now, float(len(self.simulator.loop)))
        network = self.network
        if network is not None:
            for name in sorted(network.hosts):
                host = network.hosts[name]
                telemetry.sample(f"host.{name}.rx_backlog", now, float(host.backlog()))
            for name in sorted(network.switches):
                switch = network.switches[name]
                depth = sum(len(lane.q) for lane in switch._lanes)
                telemetry.sample(f"switch.{name}.lane_depth", now, float(depth))
        metrics = self.shard_metrics
        if metrics is not None:
            window = 4 * self.interval_s
            rates = metrics.throughput_rps(now - window, now)
            for shard_id in sorted(rates):
                telemetry.sample(f"shard.{shard_id}.goodput_rps", now, rates[shard_id])
            depths = metrics.sample_queue_depths(now)
            for shard_id in sorted(depths):
                telemetry.sample(f"shard.{shard_id}.queue_depth", now, depths[shard_id])
