"""Simulated clients.

A *client process* is the unit the paper counts (180 in the single-DC
experiments, 100 per datacenter in the wide-area ones): it is bound to one
consensus node and issues requests with Poisson-distributed inter-arrival
times.  Because many client processes run on each physical client machine,
a :class:`ClientHostAgent` multiplexes all the processes of one simulated
client host over that host's single network endpoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from heapq import heapify, heapreplace
from typing import List, Optional, Tuple

from repro.metrics.collector import MetricsCollector
from repro.runtime.base import Runtime
from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.workload.keyspace import Keyspace

__all__ = ["ClientProcess", "ClientHostAgent"]

#: Arrivals pre-generated per refill of an open-loop agent's schedule.
_ARRIVAL_CHUNK = 512


@dataclass
class ClientProcess:
    """One logical client bound to one consensus node."""

    process_id: str
    target_node: str
    request_rate_hz: float
    write_ratio: float


class _ArrivalScheduler:
    """Pre-generated open-loop arrival schedule for one agent.

    Every client process issues Poisson arrivals at its own rate whether or
    not earlier requests were answered (the paper's open-loop clients,
    §8.1).  Rather than one expovariate draw, one closure and one engine
    timer *object* per request, the scheduler merges the per-process
    streams ahead of time in chunks of ``_ARRIVAL_CHUNK`` arrivals and
    fires them through a single slotted timer callback, scheduled via the
    runtime's allocation-free :meth:`~repro.runtime.base.Runtime.call_at`.

    Determinism contract: each process's next arrival is ``fire_time +
    expovariate(rate)``; ties on the arrival time break by insertion
    order, as the engine's schedule sequence would; the agent RNG is
    consumed by no one else, so drawing ahead in wall time cannot change
    its values; keyspace draws stay at fire time because that generator is
    shared across agents.
    """

    __slots__ = ("agent", "heap", "count", "times", "procs", "writes", "idx", "call_at", "tick_cb")

    def __init__(self, agent: "ClientHostAgent") -> None:
        self.agent = agent
        now = agent.runtime.now()
        rng = agent.rng
        # Initial draws in process order.
        heap: List[Tuple[float, int, ClientProcess]] = []
        count = 0
        for process in agent.processes:
            rate = process.request_rate_hz
            if rate <= 0:
                continue
            heap.append((now + rng.expovariate(rate), count, process))
            count += 1
        heapify(heap)
        self.heap = heap
        self.count = count
        self.times: List[float] = []
        self.procs: List[ClientProcess] = []
        self.writes: List[bool] = []
        self.idx = 0
        self.call_at = agent.runtime.call_at
        self.tick_cb = self.tick

    def arm(self) -> None:
        """Generate the first chunk and schedule its first arrival."""
        self._refill()
        if self.times:
            self.call_at(self.times[0], self.tick_cb)

    def _refill(self) -> None:
        """Pre-generate the next ``_ARRIVAL_CHUNK`` arrivals.

        Pops the earliest pending arrival, makes that fire's write-or-read
        draw, then draws the owning process's next inter-arrival gap.  Ties
        on the arrival time break by insertion counter, which matches the
        engine's schedule-order seq tie-breaking.
        """
        rng = self.agent.rng
        random_ = rng.random
        expovariate = rng.expovariate
        heap = self.heap
        count = self.count
        times: List[float] = []
        procs: List[ClientProcess] = []
        writes: List[bool] = []
        for _ in range(_ARRIVAL_CHUNK):
            if not heap:
                break
            t, _tie, process = heap[0]
            write = random_() < process.write_ratio
            heapreplace(heap, (t + expovariate(process.request_rate_hz), count, process))
            count += 1
            times.append(t)
            procs.append(process)
            writes.append(write)
        self.count = count
        self.times = times
        self.procs = procs
        self.writes = writes
        self.idx = 0

    def tick(self) -> None:
        """Fire one pre-generated arrival and arm the next."""
        agent = self.agent
        if not agent.running or agent._scheduler is not self:
            return
        idx = self.idx
        t = self.times[idx]
        process = self.procs[idx]
        write = self.writes[idx]
        keyspace = agent.keyspace
        request = ClientRequest(
            client_id=process.process_id,
            op=RequestType.WRITE if write else RequestType.READ,
            key=keyspace.next_key(),
            value=keyspace.next_value() if write else None,
            submitted_at=t,
        )
        agent.collector.record_submit(request)
        obs = agent._obs
        if obs is None:
            agent.transport.send(process.target_node, request, request.wire_size())
        else:
            root = obs.request_submitted(request, node=agent.runtime.node_id)
            previous = obs.push_context(root)
            try:
                agent.transport.send(process.target_node, request, request.wire_size())
            finally:
                obs.pop_context(previous)
        idx += 1
        if idx >= len(self.times):
            self._refill()
            if not self.times:
                return
            idx = 0
        self.idx = idx
        self.call_at(self.times[idx], self.tick_cb)


class ClientHostAgent:
    """Drives all client processes hosted on one client machine."""

    def __init__(
        self,
        runtime: Runtime,
        processes: List[ClientProcess],
        keyspace: Keyspace,
        collector: MetricsCollector,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.processes = processes
        self.keyspace = keyspace
        self.collector = collector
        self.rng = rng or runtime.rng
        self.running = False
        self._scheduler: Optional[_ArrivalScheduler] = None
        #: Observability hook (repro.obs.Tracer); None = off.  The agent
        #: opens each request's root span at submit and closes it on reply.
        self._obs = None
        runtime.set_handler(self.on_message)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start the agent's pre-generated arrival schedule."""
        if self.running:
            return
        self.running = True
        self._scheduler = _ArrivalScheduler(self)
        self._scheduler.arm()

    def stop(self) -> None:
        self.running = False
        self._scheduler = None

    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        if not isinstance(message, ClientReply):
            return
        self.collector.record_reply(message, completed_at=self.runtime.now())
        if self._obs is not None:
            self._obs.request_completed(message.request_id)
