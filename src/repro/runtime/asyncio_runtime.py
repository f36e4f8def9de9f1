"""In-process asyncio transport for running protocol nodes "for real".

The :class:`AsyncioCluster` hosts a set of named endpoints in one asyncio
event loop and delivers messages between them through per-node queues with
optional configurable latency.  It exists for two reasons:

* The same protocol state machines that the simulator measures can be
  executed on genuinely concurrent asyncio tasks, which exercises the code
  against real interleavings (the paper's prototype runs over TCP; an
  in-process transport preserves the asynchrony while staying hermetic).
* Examples and integration tests can run without the simulator.

Latency injection uses ``asyncio.sleep`` so message reordering between
pairs of nodes with different latencies happens naturally.
"""

from __future__ import annotations

import asyncio
import random
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.runtime.base import Runtime, Timer

__all__ = ["AsyncioRuntime", "AsyncioCluster", "AsyncioTopology"]


class AsyncioRuntime(Runtime):
    """Runtime bound to one endpoint of an :class:`AsyncioCluster`."""

    def __init__(self, cluster: "AsyncioCluster", node_id: str, seed: int) -> None:
        self.cluster = cluster
        self.node_id = node_id
        self.rng = random.Random(seed)
        self._handler: Optional[Callable[[str, Any], None]] = None
        # The asyncio substrate IS the wall-clock runtime: Runtime.now()
        # is defined as elapsed host time here (real concurrency, no
        # modelled clock), so reading the host clock is the contract.
        self._start = time.monotonic()  # detlint: disable=no-wallclock

    def now(self) -> float:
        return time.monotonic() - self._start  # detlint: disable=no-wallclock

    def send(self, dst: str, message: Any, size_bytes: Optional[int] = None) -> None:
        self.cluster.post(self.node_id, dst, message)

    def multicast(self, dsts: Sequence[str], message: Any, size_bytes: Optional[int] = None) -> None:
        self.cluster.post_group(self.node_id, dsts, message)

    def after(self, delay: float, callback: Callable[[], None]) -> Timer:
        handle = self.cluster.loop.call_later(delay, callback)
        return Timer(handle.cancel)

    def set_handler(self, handler: Callable[[str, Any], None]) -> None:
        self._handler = handler

    def deliver(self, sender: str, message: Any) -> None:
        if self._handler is not None:
            self._handler(sender, message)


class AsyncioCluster:
    """A set of asyncio-connected runtimes with injectable pairwise latency."""

    def __init__(self, seed: int = 0, default_latency_s: float = 0.0005) -> None:
        self.seed = seed
        self.default_latency_s = default_latency_s
        self.loop = asyncio.new_event_loop()
        self.runtimes: Dict[str, AsyncioRuntime] = {}
        self.latencies: Dict[Tuple[str, str], float] = {}
        self.messages_delivered = 0
        self._pending = 0
        self._idle_event = asyncio.Event()

    # ------------------------------------------------------------------
    def add_node(self, node_id: str) -> AsyncioRuntime:
        if node_id in self.runtimes:
            raise ValueError(f"duplicate node {node_id!r}")
        runtime = AsyncioRuntime(self, node_id, seed=self.seed * 31 + len(self.runtimes))
        self.runtimes[node_id] = runtime
        return runtime

    def set_latency(self, a: str, b: str, latency_s: float) -> None:
        """Set symmetric delivery latency between nodes ``a`` and ``b``."""
        self.latencies[(a, b)] = latency_s
        self.latencies[(b, a)] = latency_s

    def latency(self, a: str, b: str) -> float:
        return self.latencies.get((a, b), self.default_latency_s)

    # ------------------------------------------------------------------
    def post(self, src: str, dst: str, message: Any) -> None:
        """Queue delivery of ``message`` from ``src`` to ``dst``."""
        if dst not in self.runtimes:
            return
        delay = self.latency(src, dst)
        self._pending += 1
        self._idle_event.clear()

        async def _deliver() -> None:
            try:
                if delay > 0:
                    await asyncio.sleep(delay)
                self.runtimes[dst].deliver(src, message)
                self.messages_delivered += 1
            finally:
                self._pending -= 1
                if self._pending == 0:
                    self._idle_event.set()

        self.loop.create_task(_deliver())

    def post_group(self, src: str, dsts: Sequence[str], message: Any) -> None:
        """Deliver one logical ``message`` to a destination group concurrently.

        This is the asyncio substrate's fan-out primitive behind
        :meth:`AsyncioRuntime.multicast`: one task drives the whole group
        through ``asyncio.gather``, so per-destination latencies elapse
        concurrently instead of the base class's sequential per-destination
        ``send`` loop creating one task per destination.  Delivery per
        destination is identical to :meth:`post` (same latency lookup, same
        pending accounting), only the task structure differs.
        """
        targets = [dst for dst in dsts if dst in self.runtimes]
        if not targets:
            return
        self._pending += len(targets)
        self._idle_event.clear()

        async def _deliver_one(dst: str) -> None:
            try:
                delay = self.latency(src, dst)
                if delay > 0:
                    await asyncio.sleep(delay)
                self.runtimes[dst].deliver(src, message)
                self.messages_delivered += 1
            finally:
                self._pending -= 1
                if self._pending == 0:
                    self._idle_event.set()

        async def _fan_out() -> None:
            await asyncio.gather(*(_deliver_one(dst) for dst in targets))

        self.loop.create_task(_fan_out())

    # ------------------------------------------------------------------
    def run(self, coro: Any) -> Any:
        """Run ``coro`` to completion on the cluster's loop."""
        asyncio.set_event_loop(self.loop)
        return self.loop.run_until_complete(coro)

    def run_for(self, duration_s: float) -> None:
        """Run the cluster for ``duration_s`` of wall-clock time."""
        self.run(asyncio.sleep(duration_s))

    async def settle(self, timeout_s: float = 5.0, quiescent_rounds: int = 3) -> None:
        """Wait until no messages are in flight for a few scheduler turns.

        Raises :class:`TimeoutError`, naming how many messages are still in
        flight, if the cluster is not quiet by ``timeout_s``.
        """
        # Wall-clock by design: settle() bounds a *real* asyncio scheduler,
        # not simulated time.
        deadline = time.monotonic() + timeout_s  # detlint: disable=no-wallclock
        quiet = 0
        while time.monotonic() < deadline:  # detlint: disable=no-wallclock
            if self._pending == 0:
                quiet += 1
                if quiet >= quiescent_rounds:
                    return
            else:
                quiet = 0
            await asyncio.sleep(0.002)
        raise TimeoutError(
            f"cluster not quiet after {timeout_s} s: {self._pending} messages in flight"
        )

    def close(self) -> None:
        """Cancel every pending task of the loop, let the cancellations run,
        then close the loop."""
        pending = asyncio.all_tasks(self.loop)
        # Cancellation is order-insensitive (no task observes another's
        # cancellation order) and this substrate is non-deterministic by
        # design, so set order is harmless here.
        for task in pending:  # detlint: disable=no-unordered-iteration
            task.cancel()
        if pending:
            self.loop.run_until_complete(asyncio.gather(*pending, return_exceptions=True))
        self.loop.close()


class AsyncioTopology:
    """A topology-shaped view over an :class:`AsyncioCluster`.

    Registry protocol factories only touch a topology through three hooks —
    ``server_hosts``, ``servers_by_rack()`` and ``make_runtime(node_id)`` —
    so this shim is enough to build *any* registered protocol on the asyncio
    substrate::

        topology = AsyncioTopology({"rack-a": ["a1", "a2"], "rack-b": ["b1", "b2"]})
        protocol = build_protocol("epaxos", topology)
        topology.cluster.run_for(1.0)

    There are no client hosts: asyncio deployments submit requests directly
    through ``protocol.submit`` (the conformance suite's intake path).
    """

    kind = "asyncio"

    def __init__(self, rack_map: Dict[str, Sequence[str]], seed: int = 0,
                 cluster: Optional[AsyncioCluster] = None) -> None:
        self.rack_map: Dict[str, List[str]] = {
            name: list(members) for name, members in sorted(rack_map.items())
        }
        self.cluster = cluster or AsyncioCluster(seed=seed)
        self.client_hosts: List[str] = []

    @property
    def server_hosts(self) -> List[str]:
        return [member for members in self.rack_map.values() for member in members]

    def servers_by_rack(self) -> Dict[str, List[str]]:
        return {name: list(members) for name, members in self.rack_map.items()}

    def make_runtime(self, node_id: str) -> AsyncioRuntime:
        return self.cluster.add_node(node_id)
