"""Deterministic request-span tracing over the simulated stack.

The :class:`Tracer` follows a client request end to end — submit →
transport hops → protocol phases → commit → reply — as parent/child
:class:`Span` records stamped in **sim time**.  Three properties are the
design contract (see ARCHITECTURE.md "Observability"):

* **Zero cost when off.**  Every instrumented component holds a single
  ``self._obs`` attribute, ``None`` by default; every instrumentation
  point is ``if self._obs is not None: ...``.  The off path costs one
  attribute load — no wrapper objects, no no-op method calls on the hot
  path.

* **No wire change.**  Causal context never rides inside a message.
  Correlation lives in *side tables* keyed by deterministic identifiers
  the stack already has: ``Packet.packet_id`` (a per-network counter)
  links a transport hop to the span that was current when the packet was
  created, and protocol-native keys (EPaxos instance ids, Zab zxids,
  Canopus cycle ids, Raft log indexes) link phase begin/end pairs.  Wire sizes, message contents, and therefore all fixed-seed
  commit-log digests are byte-identical with tracing on or off.

* **Determinism.**  Span ids come from a local counter, timestamps are
  sim time, and nothing touches wall clocks, ``id()``, or salted hashes.
  A fixed-seed run traced twice in two different processes produces
  byte-identical exports (request ids are normalized to the run minimum
  at export time, exactly like the bench harness's commit-log digest).

Ambient context is a single ``_current`` span: :meth:`Tracer.deliver`
wraps a handler invocation so any packet *created while handling* a
delivered packet is parented to that delivery's hop span.  Sends from
timer callbacks (batch flush timers, retry timers) have no ambient
context; their hops are recorded unparented and correlation continues
through the phase side tables instead — an accepted, documented limit.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["Span", "Tracer", "format_trace_slice", "format_phase_slice"]


class Span:
    """One timed, named interval in a trace (times are sim-time seconds)."""

    __slots__ = ("span_id", "parent_id", "name", "category", "node", "start", "end", "args")

    def __init__(
        self,
        span_id: int,
        name: str,
        category: str,
        node: Optional[str],
        start: float,
        parent_id: Optional[int] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.node = node
        self.start = start
        self.end: Optional[float] = None
        self.args = args

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def __repr__(self) -> str:
        dur = "open" if self.end is None else f"{(self.end - self.start) * 1e3:.3f}ms"
        return f"<Span #{self.span_id} {self.category}/{self.name} node={self.node} {dur}>"


class Tracer:
    """Collects spans for one run; attach via ``repro.obs.attach_tracer``.

    ``clock`` is the run's time source (``simulator.now`` /
    ``runtime.now``); it must be the *sim* clock so traces are
    deterministic.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.clock = clock
        self._ids = itertools.count(1)
        #: Every span ever begun, in creation order (creation order is
        #: deterministic, so the export needs no re-sorting).
        self.spans: List[Span] = []
        self._current: Optional[Span] = None
        #: request_id -> open root span of that client request.
        self._requests: Dict[int, Span] = {}
        #: request_id -> every span id recorded for the request (kept after
        #: completion — the verify checkers slice on this).
        self._request_spans: Dict[int, List[int]] = {}
        #: packet_id -> span that was current when the packet was created.
        self._packet_parents: Dict[int, Span] = {}
        #: (protocol, phase, node, key) -> open phase span.
        self._open_phases: Dict[Tuple[str, str, str, Any], Span] = {}

    # ------------------------------------------------------------------
    # Core span lifecycle
    # ------------------------------------------------------------------
    def begin(
        self,
        name: str,
        category: str,
        node: Optional[str] = None,
        parent: Optional[Span] = None,
        args: Optional[Dict[str, Any]] = None,
        start: Optional[float] = None,
    ) -> Span:
        span = Span(
            span_id=next(self._ids),
            name=name,
            category=category,
            node=node,
            start=self.clock() if start is None else start,
            parent_id=None if parent is None else parent.span_id,
            args=args,
        )
        self.spans.append(span)
        return span

    def finish(self, span: Span, end: Optional[float] = None) -> None:
        if span.end is None:
            span.end = self.clock() if end is None else end

    # ------------------------------------------------------------------
    # Ambient causal context
    # ------------------------------------------------------------------
    def push_context(self, span: Optional[Span]) -> Optional[Span]:
        """Make ``span`` the ambient parent; returns the previous context."""
        previous = self._current
        self._current = span
        return previous

    def pop_context(self, previous: Optional[Span]) -> None:
        self._current = previous

    @property
    def current(self) -> Optional[Span]:
        return self._current

    # ------------------------------------------------------------------
    # Request roots (workload clients)
    # ------------------------------------------------------------------
    def request_submitted(self, request: Any, node: Optional[str] = None) -> Span:
        """Open the root span of a client request (at submit time)."""
        rid = request.request_id
        span = self.begin(
            "request",
            "request",
            node=node,
            args={"rid": rid, "op": request.op.value, "key": request.key},
        )
        self._requests[rid] = span
        self._request_spans.setdefault(rid, []).append(span.span_id)
        return span

    def request_completed(self, request_id: int, node: Optional[str] = None) -> None:
        """Close the root span when the client sees the reply."""
        span = self._requests.pop(request_id, None)
        if span is not None:
            self.finish(span)

    # ------------------------------------------------------------------
    # Transport hops (network delivery path)
    # ------------------------------------------------------------------
    def packet_sent(self, packet: Any) -> None:
        """Record the ambient span as the causal parent of ``packet``.

        Called at packet-creation time; the correlation lives in a side
        table keyed by the deterministic ``packet_id`` — nothing is added
        to the packet itself, so wire sizes and digests are untouched.
        """
        current = self._current
        if current is not None:
            self._packet_parents[packet.packet_id] = current

    def deliver(self, node: str, packet: Any, handler: Callable[[str, Any], None]) -> None:
        """Record a transport hop and run ``handler`` under its context.

        The hop span covers ``sent_at → now`` (propagation + queueing);
        any packet created while the handler runs is parented to this hop,
        which is how causality crosses the network without touching the
        messages themselves.
        """
        parent = self._packet_parents.pop(packet.packet_id, None)
        payload = packet.payload
        args: Dict[str, Any] = {"src": packet.src, "bytes": packet.size_bytes}
        rid = getattr(payload, "request_id", None)
        if rid is not None:
            args["rid"] = rid
        span = self.begin(
            type(payload).__name__,
            "hop",
            node=node,
            parent=parent,
            args=args,
            start=packet.sent_at,
        )
        span.end = self.clock()
        if rid is not None:
            self._request_spans.setdefault(rid, []).append(span.span_id)
        previous = self._current
        self._current = span
        try:
            handler(packet.src, payload)
        finally:
            self._current = previous

    # ------------------------------------------------------------------
    # Protocol phases (side table keyed by protocol-native identifiers)
    # ------------------------------------------------------------------
    def phase_begin(
        self,
        protocol: str,
        phase: str,
        node: str,
        key: Any = None,
        request_ids: Iterable[int] = (),
    ) -> Span:
        """Open a named protocol phase; close with the same (phase, node, key)."""
        args: Dict[str, Any] = {}
        if key is not None:
            args["key"] = str(key)
        rids = [rid for rid in request_ids]
        if rids:
            args["rids"] = rids
        span = self.begin(phase, "phase:" + protocol, node=node, parent=self._current, args=args or None)
        key_tuple = (protocol, phase, node, key)
        existing = self._open_phases.get(key_tuple)
        if existing is not None:
            # Re-entered phase (e.g. a retried fetch): close the stale span
            # so the side table never leaks an open interval.
            self.finish(existing)
        self._open_phases[key_tuple] = span
        for rid in rids:
            self._request_spans.setdefault(rid, []).append(span.span_id)
        return span

    def phase_end(
        self,
        protocol: str,
        phase: str,
        node: str,
        key: Any = None,
        request_ids: Iterable[int] = (),
    ) -> None:
        """Close a phase opened by :meth:`phase_begin` (missing = no-op)."""
        span = self._open_phases.pop((protocol, phase, node, key), None)
        if span is None:
            return
        self.finish(span)
        rids = [rid for rid in request_ids]
        if rids:
            if span.args is None:
                span.args = {}
            span.args.setdefault("rids", []).extend(rids)
            for rid in rids:
                self._request_spans.setdefault(rid, []).append(span.span_id)

    def phase_point(
        self,
        protocol: str,
        phase: str,
        node: str,
        key: Any = None,
        request_ids: Iterable[int] = (),
    ) -> Span:
        """A zero-duration phase marker (e.g. a commit point)."""
        span = self.phase_begin(protocol, phase, node, key=key, request_ids=request_ids)
        self._open_phases.pop((protocol, phase, node, key), None)
        span.end = span.start
        return span

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def spans_for_request(self, request_id: int) -> List[Span]:
        """Every span recorded for ``request_id``, in creation order."""
        by_id = {span.span_id: span for span in self.spans}
        return [by_id[sid] for sid in self._request_spans.get(request_id, ()) if sid in by_id]

    def open_span_count(self) -> int:
        return sum(1 for span in self.spans if span.end is None)


def _format_span_line(span: Span) -> str:
    end = span.end if span.end is not None else span.start
    dur_ms = (end - span.start) * 1e3
    key = ""
    if span.args and "key" in span.args:
        key = f" key={span.args['key']}"
    return (
        f"    [{span.start * 1e3:10.3f}ms +{dur_ms:8.3f}ms] "
        f"{span.category}/{span.name} @{span.node}{key}"
    )


def format_trace_slice(tracer: Optional[Tracer], request_ids: Iterable[int], limit: int = 40) -> str:
    """Human-readable slice of the trace covering ``request_ids``.

    Used by the linearizability checker to explain a failed check: instead
    of just naming the offending operations, show the spans (hops +
    phases) those operations produced.
    Returns ``""`` when no tracer is attached or nothing was recorded.
    """
    if tracer is None:
        return ""
    lines: List[str] = []
    for rid in request_ids:
        spans = tracer.spans_for_request(rid)
        if not spans:
            continue
        lines.append(f"  request #{rid}:")
        for span in spans[:limit]:
            lines.append(_format_span_line(span))
        if len(spans) > limit:
            lines.append(f"    ... {len(spans) - limit} more spans")
    if not lines:
        return ""
    return "\ntrace slice of implicated operations:\n" + "\n".join(lines)


def format_phase_slice(tracer: Optional[Tracer], keys: Iterable[Any], limit: int = 40) -> str:
    """Trace slice of spans keyed by protocol-native keys (e.g. a Canopus cycle).

    For a check that implicates protocol state rather than client request
    ids: the spans are found by the ``key`` recorded at
    :meth:`Tracer.phase_begin` time.  Returns ``""`` when no tracer is
    attached or nothing matches.
    """
    if tracer is None:
        return ""
    wanted = sorted({str(key) for key in keys})
    lines: List[str] = []
    for key in wanted:
        spans = [span for span in tracer.spans if span.args and span.args.get("key") == key]
        if not spans:
            continue
        lines.append(f"  key {key}:")
        for span in spans[:limit]:
            lines.append(_format_span_line(span))
        if len(spans) > limit:
            lines.append(f"    ... {len(spans) - limit} more spans")
    if not lines:
        return ""
    return "\ntrace slice of implicated operations:\n" + "\n".join(lines)
