"""Deterministic observability fabric: spans, phases, and telemetry.

Public surface:

* :class:`Tracer` / :class:`Span` — request spans + protocol phases
  (:mod:`repro.obs.trace`),
* :class:`Telemetry` / :class:`TelemetrySampler` — sim-time queue
  sampling into name-keyed timeseries (:mod:`repro.obs.telemetry`),
* :func:`export_json` / :func:`export_chrome_trace` / :func:`trace_digest`
  — deterministic exports (:mod:`repro.obs.export`),
* ``python -m repro.obs.report`` — per-phase latency breakdowns and a
  slowest-request drill-down (:mod:`repro.obs.report`),
* :func:`attach_tracer` — one-call wiring for whatever a run has.

Everything is zero-cost when off: instrumented components hold a single
``_obs`` attribute (``None`` by default) and every instrumentation point
is one attribute load plus a ``None`` check.  See ARCHITECTURE.md
"Observability" for the span model and the determinism contract.
"""

from __future__ import annotations

from typing import Any, Iterable, Optional

from repro.obs.export import export_chrome_trace, export_json, trace_digest, trace_to_dict
from repro.obs.telemetry import Telemetry, TelemetrySampler
from repro.obs.trace import Span, Tracer, format_phase_slice, format_trace_slice

__all__ = [
    "Span",
    "Tracer",
    "format_trace_slice",
    "format_phase_slice",
    "Telemetry",
    "TelemetrySampler",
    "trace_to_dict",
    "export_json",
    "export_chrome_trace",
    "trace_digest",
    "attach_tracer",
]


def attach_tracer(
    tracer: Optional[Tracer],
    *,
    protocol: Any = None,
    agents: Iterable[Any] = (),
) -> Optional[Tracer]:
    """Wire ``tracer`` into whatever a run has; pass ``None`` to detach.

    ``protocol`` is a :class:`repro.protocols.base.ConsensusProtocol`.
    Hops are recorded where the network sends and delivers packets, so the
    hook goes on its topology's network and on every host there; each of
    its nodes gets the hook for its phase spans, labelled with the
    registry name so that variants sharing a node class (``canopus`` and
    ``zkcanopus``) stay apart.  ``agents`` are workload client agents
    (``ClientHostAgent``), which open and close each request's root span.
    Returns ``tracer`` for chaining.
    """
    if protocol is not None:
        network = protocol.topology.network
        network._obs = tracer
        for host in network.hosts.values():
            host._obs = tracer
        for node in protocol.nodes.values():
            node._obs = tracer
            node._obs_proto = protocol.name
    for agent in agents:
        agent._obs = tracer
    return tracer
