"""Runtime abstraction: the boundary between protocol logic and transport.

Protocol nodes (Canopus, Raft, EPaxos, Zab) are written against the small
:class:`~repro.runtime.base.Runtime` interface so that the identical
protocol code runs both on the deterministic discrete-event simulator
(:class:`~repro.runtime.sim_runtime.SimRuntime`) and on an in-process
asyncio transport (:class:`~repro.runtime.asyncio_runtime.AsyncioRuntime`).
The client request and reply every protocol serves are defined next to the
interface, in :mod:`repro.runtime.messages`.

The asyncio runtime is imported from its own module and never from here, so
a simulator run does not load asyncio.
"""

from repro.runtime.base import Runtime, Timer
from repro.runtime.sim_runtime import SimRuntime

__all__ = ["Runtime", "Timer", "SimRuntime"]
