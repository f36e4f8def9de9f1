"""Runtime abstraction: the boundary between protocol logic and transport.

Protocol nodes (Canopus, Raft, EPaxos, Zab) are written against the small
:class:`~repro.runtime.base.Runtime` interface, which the deterministic
discrete-event simulator implements
(:class:`~repro.runtime.sim_runtime.SimRuntime`, with its
:class:`~repro.runtime.sim_runtime.Transport`).  The client request and
reply every protocol serves are defined next to the interface, in
:mod:`repro.runtime.messages`.
"""

from repro.runtime.base import Runtime, Timer
from repro.runtime.sim_runtime import SimRuntime

__all__ = ["Runtime", "Timer", "SimRuntime"]
