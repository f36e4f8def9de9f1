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
from typing import Callable, Dict, List, Optional, Tuple

from repro.metrics.collector import MetricsCollector
from repro.runtime.base import Runtime
from repro.runtime.messages import ClientReply, ClientRequest, RequestType
from repro.workload.keyspace import Keyspace

__all__ = ["ClientProcess", "ClientHostAgent"]

#: Arrivals pre-generated per refill of an open-loop agent's schedule.
_ARRIVAL_CHUNK = 512

#: Request kinds in a pre-generated schedule.
_KIND_READ, _KIND_WRITE, _KIND_TXN_WRITE, _KIND_TXN_READ = 0, 1, 2, 3


@dataclass
class ClientProcess:
    """One logical client bound to one consensus node."""

    process_id: str
    target_node: str
    request_rate_hz: float
    write_ratio: float
    #: Maximum number of outstanding requests; the paper's baseline model
    #: allows several, the write-lease model (§7.2) requires exactly one.
    max_outstanding: int = 4
    outstanding: int = 0
    sent: int = 0
    completed: int = 0
    txns_sent: int = 0
    read_txns_sent: int = 0


class _ArrivalScheduler:
    """Pre-generated open-loop arrival schedule for one agent.

    The naive open loop costs one expovariate draw, one closure, and one
    engine timer *object* per request.  This scheduler instead merges the
    per-process Poisson streams ahead of time in chunks of
    ``_ARRIVAL_CHUNK`` arrivals and fires them through a single slotted
    timer callback, scheduled via the runtime's allocation-free
    :meth:`~repro.runtime.base.Runtime.call_at`.

    Determinism contract: the request stream is bit-identical to the naive
    loop's.  Arrival times use the same ``fire_time + expovariate`` float
    arithmetic; the agent RNG draws happen in the same order (the merge
    replays the engine's ``(time, insertion-order)`` tie-breaking, and the
    agent RNG is consumed by no one else, so pulling draws earlier in wall
    time cannot change their values); keyspace draws stay at fire time
    because that generator is shared across agents.
    """

    __slots__ = ("agent", "heap", "count", "times", "procs", "kinds", "idx", "call_at", "tick_cb")

    def __init__(self, agent: "ClientHostAgent") -> None:
        self.agent = agent
        now = agent.runtime.now()
        rng = agent.rng
        # Initial draws in process order — exactly what the naive start() did.
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
        self.kinds: List[int] = []
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

        Pops the earliest pending arrival, makes that fire's decision draws
        in the naive per-fire order (multi-key?, then txn-read? or write?),
        then draws the owning process's next inter-arrival gap — the same
        recursion the engine performed one timer at a time.  Ties on the
        arrival time break by insertion counter, which matches the engine's
        schedule-order seq tie-breaking.
        """
        agent = self.agent
        rng = agent.rng
        random_ = rng.random
        expovariate = rng.expovariate
        heap = self.heap
        mk_ratio = agent.multi_key_ratio
        tr_ratio = agent.txn_read_ratio
        count = self.count
        times: List[float] = []
        procs: List[ClientProcess] = []
        kinds: List[int] = []
        for _ in range(_ARRIVAL_CHUNK):
            if not heap:
                break
            t, _tie, process = heap[0]
            if mk_ratio > 0.0 and random_() < mk_ratio:
                if tr_ratio > 0.0 and random_() < tr_ratio:
                    kind = _KIND_TXN_READ
                else:
                    kind = _KIND_TXN_WRITE
            elif random_() < process.write_ratio:
                kind = _KIND_WRITE
            else:
                kind = _KIND_READ
            heapreplace(heap, (t + expovariate(process.request_rate_hz), count, process))
            count += 1
            times.append(t)
            procs.append(process)
            kinds.append(kind)
        self.count = count
        self.times = times
        self.procs = procs
        self.kinds = kinds
        self.idx = 0

    def tick(self) -> None:
        """Fire one pre-generated arrival and arm the next."""
        agent = self.agent
        if not agent.running or agent._scheduler is not self:
            return
        idx = self.idx
        t = self.times[idx]
        process = self.procs[idx]
        kind = self.kinds[idx]
        keyspace = agent.keyspace
        if kind <= _KIND_WRITE:
            request = ClientRequest(
                client_id=process.process_id,
                op=RequestType.WRITE if kind else RequestType.READ,
                key=keyspace.next_key(),
                value=keyspace.next_value() if kind else None,
                submitted_at=t,
            )
            agent._inflight[request.request_id] = process
            process.outstanding += 1
            process.sent += 1
            agent.collector.record_submit(request)
            route_key = agent.route_key
            target = route_key(request.key) if route_key is not None else process.target_node
            obs = agent._obs
            if obs is None:
                agent.transport.send(target, request, request.wire_size())
            else:
                root = obs.request_submitted(request, node=agent.runtime.node_id)
                previous = obs.push_context(root)
                try:
                    agent.transport.send(target, request, request.wire_size())
                finally:
                    obs.pop_context(previous)
        elif kind == _KIND_TXN_WRITE:
            keys = keyspace.next_txn_keys(agent.multi_key_span)
            writes = {key: keyspace.next_value() for key in keys}
            process.txns_sent += 1
            agent.submit_txn(process.process_id, writes)
        else:
            keys = keyspace.next_txn_keys(agent.multi_key_span)
            process.read_txns_sent += 1
            agent.read_txn(process.process_id, keys)
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
        open_loop: bool = True,
        route_key: Optional[Callable[[str], str]] = None,
        submit_txn: Optional[Callable[[str, Dict[str, str]], None]] = None,
        read_txn: Optional[Callable[[str, List[str]], None]] = None,
        multi_key_ratio: float = 0.0,
        multi_key_span: int = 2,
        txn_read_ratio: float = 0.0,
    ) -> None:
        self.runtime = runtime
        self.transport = runtime.transport
        self.processes = processes
        self.keyspace = keyspace
        self.collector = collector
        self.rng = rng or runtime.rng
        self.open_loop = open_loop
        #: Shard-aware routing: maps a key to the node that should serve it
        #: (sharded deployments); ``None`` keeps the per-process binding.
        self.route_key = route_key
        #: Coordinator hook for multi-key operations: called with
        #: ``(client_id, {key: value})``; the coordinator (a ShardRouter)
        #: runs two-phase commit across the owning shards.
        self.submit_txn = submit_txn
        #: Snapshot-read hook: called with ``(client_id, [keys])``; the
        #: coordinator reads the keys as one consistent cut.
        self.read_txn = read_txn
        self.multi_key_ratio = multi_key_ratio if submit_txn is not None else 0.0
        self.multi_key_span = multi_key_span
        self.txn_read_ratio = txn_read_ratio if read_txn is not None else 0.0
        self._inflight: Dict[int, ClientProcess] = {}
        self.running = False
        self._scheduler: Optional[_ArrivalScheduler] = None
        #: Observability hook (repro.obs.Tracer); None = off.  The agent
        #: opens each request's root span at submit and closes it on reply.
        self._obs = None
        runtime.set_handler(self.on_message)

    def attach_tracer(self, tracer) -> None:
        """Trace this agent's requests end to end (detach with ``None``)."""
        self._obs = tracer
        self.runtime.attach_tracer(tracer)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Start every client process's arrival timer.

        Open-loop agents run on a pre-generated arrival schedule (see
        :class:`_ArrivalScheduler`); closed-loop agents keep the naive
        per-process timers because their sends are gated on replies.
        """
        if self.running:
            return
        self.running = True
        if self.open_loop:
            self._scheduler = _ArrivalScheduler(self)
            self._scheduler.arm()
            return
        for process in self.processes:
            self._schedule_next(process)

    def stop(self) -> None:
        self.running = False
        self._scheduler = None

    # ------------------------------------------------------------------
    def _schedule_next(self, process: ClientProcess) -> None:
        if not self.running or process.request_rate_hz <= 0:
            return
        delay = self.rng.expovariate(process.request_rate_hz)
        self.runtime.after(delay, lambda: self._fire(process))

    def _fire(self, process: ClientProcess) -> None:
        if not self.running:
            return
        if self.open_loop or process.outstanding < process.max_outstanding:
            self._send_request(process)
        self._schedule_next(process)

    def _send_request(self, process: ClientProcess) -> None:
        if self.multi_key_ratio > 0.0 and self.rng.random() < self.multi_key_ratio:
            self._send_transaction(process)
            return
        is_write = self.rng.random() < process.write_ratio
        request = ClientRequest(
            client_id=process.process_id,
            op=RequestType.WRITE if is_write else RequestType.READ,
            key=self.keyspace.next_key(),
            value=self.keyspace.next_value() if is_write else None,
            submitted_at=self.runtime.now(),
        )
        self._inflight[request.request_id] = process
        process.outstanding += 1
        process.sent += 1
        self.collector.record_submit(request)
        target = self.route_key(request.key) if self.route_key is not None else process.target_node
        obs = self._obs
        if obs is None:
            self.transport.send(target, request, request.wire_size())
        else:
            root = obs.request_submitted(request, node=self.runtime.node_id)
            previous = obs.push_context(root)
            try:
                self.transport.send(target, request, request.wire_size())
            finally:
                obs.pop_context(previous)

    def _send_transaction(self, process: ClientProcess) -> None:
        """Hand a multi-key operation to the 2PC coordinator.

        A ``txn_read_ratio`` fraction of multi-key operations are snapshot
        reads over the same key distribution; the rest are write sets.  The
        coordinator submits through the shard protocols directly (a
        client-library coordinator), so transactions are not recorded in the
        per-request metrics collector; their completions are counted by the
        router's own stats and the per-shard reply stream.
        """
        keys = self.keyspace.next_txn_keys(self.multi_key_span)
        if self.txn_read_ratio > 0.0 and self.rng.random() < self.txn_read_ratio:
            process.read_txns_sent += 1
            self.read_txn(process.process_id, keys)
            return
        writes = {key: self.keyspace.next_value() for key in keys}
        process.txns_sent += 1
        self.submit_txn(process.process_id, writes)

    # ------------------------------------------------------------------
    def on_message(self, sender: str, message: object) -> None:
        if not isinstance(message, ClientReply):
            return
        process = self._inflight.pop(message.request_id, None)
        if process is None:
            return
        process.outstanding -= 1
        process.completed += 1
        self.collector.record_reply(message, completed_at=self.runtime.now())
        if self._obs is not None:
            self._obs.request_completed(message.request_id)
        if not self.open_loop and self.running:
            # Closed loop: immediately issue the next request.
            self._send_request(process)

    # ------------------------------------------------------------------
    def total_sent(self) -> int:
        return sum(process.sent for process in self.processes)

    def total_completed(self) -> int:
        return sum(process.completed for process in self.processes)

    def total_txns_sent(self) -> int:
        return sum(process.txns_sent for process in self.processes)

    def total_read_txns_sent(self) -> int:
        return sum(process.read_txns_sent for process in self.processes)
