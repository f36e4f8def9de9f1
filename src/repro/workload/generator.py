"""Workload construction: bind client processes to nodes on a topology."""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.metrics.collector import MetricsCollector
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.topology import Topology
from repro.workload.clients import ClientHostAgent, ClientProcess
from repro.workload.keyspace import Keyspace

__all__ = ["WorkloadConfig", "WorkloadGenerator"]


@dataclass
class WorkloadConfig:
    """Parameters of one generated workload."""

    #: Total number of client processes across the whole deployment.
    client_processes: int = 180
    #: Aggregate request rate (requests/second) across all client processes.
    aggregate_rate_hz: float = 10_000.0
    #: Fraction of requests that are writes (the paper sweeps 1%–100%).
    write_ratio: float = 0.2
    #: Number of distinct keys, drawn uniformly (§8.1).
    key_count: int = 100_000
    seed: int = 1


class WorkloadGenerator:
    """Creates client agents on the client hosts of a topology.

    Client processes are spread uniformly over the topology's client hosts
    and each process is bound to a uniformly-selected server in the same
    rack (single-DC) or the same datacenter (multi-DC), matching §8.1/§8.2.
    """

    def __init__(self, topology: Topology, config: Optional[WorkloadConfig] = None) -> None:
        self.topology = topology
        self.config = config or WorkloadConfig()
        self.collector = MetricsCollector()
        self.agents: List[ClientHostAgent] = []
        self.rng = random.Random(self.config.seed)

    # ------------------------------------------------------------------
    def build(self, server_filter: Optional[List[str]] = None) -> MetricsCollector:
        """Create the client agents; returns the shared metrics collector."""
        client_hosts = self.topology.client_hosts
        if not client_hosts:
            raise ValueError("topology has no client hosts")
        per_process_rate = self.config.aggregate_rate_hz / self.config.client_processes
        keyspace = Keyspace(
            key_count=self.config.key_count,
            rng=random.Random(self.config.seed + 17),
        )

        processes_by_host: Dict[str, List[ClientProcess]] = {host: [] for host in client_hosts}
        for index in range(self.config.client_processes):
            client_host = client_hosts[index % len(client_hosts)]
            target = self._pick_target(client_host, server_filter)
            process = ClientProcess(
                process_id=f"{client_host}/p{index}",
                target_node=target,
                request_rate_hz=per_process_rate,
                write_ratio=self.config.write_ratio,
            )
            processes_by_host[client_host].append(process)

        for host_name, processes in processes_by_host.items():
            if not processes:
                continue
            host = self.topology.network.hosts[host_name]
            runtime = SimRuntime(self.topology.simulator, self.topology.network, host)
            agent = ClientHostAgent(
                runtime=runtime,
                processes=processes,
                keyspace=keyspace,
                collector=self.collector,
                # crc32, not hash(): string hashes are salted per process and
                # would make the "same seed" workload differ between runs.
                rng=random.Random(self.config.seed + zlib.crc32(host_name.encode("utf-8")) % 1000),
            )
            self.agents.append(agent)
        return self.collector

    def _pick_target(self, client_host: str, server_filter: Optional[List[str]]) -> str:
        """Pick the server a client process binds to (same rack, then same DC)."""
        rack = self.topology.rack_of(client_host)
        candidates = [s for s in rack.server_hosts]
        if not candidates:
            dc = self.topology.datacenter_of(client_host)
            candidates = list(dc.server_hosts)
        if not candidates:
            candidates = list(self.topology.server_hosts)
        if server_filter is not None:
            filtered = [s for s in candidates if s in server_filter]
            candidates = filtered or [s for s in self.topology.server_hosts if s in server_filter]
        return self.rng.choice(candidates)

    # ------------------------------------------------------------------
    def start(self) -> None:
        for agent in self.agents:
            agent.start()

    def stop(self) -> None:
        for agent in self.agents:
            agent.stop()

    def total_sent(self) -> int:
        return sum(agent.total_sent() for agent in self.agents)

    def total_completed(self) -> int:
        return sum(agent.total_completed() for agent in self.agents)
