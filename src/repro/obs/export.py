"""Deterministic trace export: canonical JSON and Chrome trace-event format.

The canonical JSON is the byte-identical artifact of the determinism
contract: timestamps are integer nanoseconds of sim time, request ids are
normalized to the run minimum (exactly like the bench harness's
commit-log digest), keys are sorted, and nothing process-specific (wall
clocks, ``id()``, salted hashes) ever enters the file.  Tracing a
fixed-seed run twice — in two different processes — must produce the same
bytes; ``trace_digest`` is the sha256 the tests pin.

``export_chrome_trace`` writes the same data as Chrome trace-event JSON
("X" complete events for spans, "C" counter events for telemetry series),
loadable in Perfetto / ``chrome://tracing``; nodes become processes via
process_name metadata.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, List, Optional

from repro.obs.telemetry import Telemetry
from repro.obs.trace import Tracer

__all__ = ["trace_to_dict", "export_json", "export_chrome_trace", "trace_digest"]


def _ns(seconds: float) -> int:
    return round(seconds * 1e9)


def trace_to_dict(tracer: Tracer, telemetry: Optional[Telemetry] = None) -> Dict[str, Any]:
    """Canonical, JSON-ready form of a finished trace.

    Spans appear in creation order (deterministic); request ids in span
    args are rebased to the run's minimum so the bytes do not depend on
    how many requests earlier runs in the same process consumed from the
    global id counter.
    """
    min_rid = min(tracer._request_spans, default=0)

    def _norm_args(args: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        if args is None:
            return None
        out = dict(args)
        if "rid" in out:
            out["rid"] = out["rid"] - min_rid
        if "rids" in out:
            out["rids"] = [rid - min_rid for rid in out["rids"]]
        return out

    spans: List[Dict[str, Any]] = []
    for span in tracer.spans:
        end = span.end if span.end is not None else span.start
        record: Dict[str, Any] = {
            "id": span.span_id,
            "name": span.name,
            "cat": span.category,
            "node": span.node,
            "ts_ns": _ns(span.start),
            "dur_ns": _ns(end) - _ns(span.start),
        }
        if span.parent_id is not None:
            record["parent"] = span.parent_id
        args = _norm_args(span.args)
        if args:
            record["args"] = args
        spans.append(record)

    out: Dict[str, Any] = {"format": "repro-trace-v1", "spans": spans}
    if telemetry is not None:
        out["series"] = {
            name: [[_ns(t), value] for t, value in points]
            for name, points in sorted(telemetry.series.items())
        }
    return out


def export_json(
    tracer: Tracer, path: str, telemetry: Optional[Telemetry] = None
) -> Dict[str, Any]:
    """Write the canonical JSON trace to ``path``; returns the dict."""
    data = trace_to_dict(tracer, telemetry)
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return data


def trace_digest(data: Dict[str, Any]) -> str:
    """sha256 over the canonical JSON bytes of an exported trace."""
    payload = json.dumps(data, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def export_chrome_trace(
    tracer: Tracer, path: str, telemetry: Optional[Telemetry] = None
) -> None:
    """Write a Chrome trace-event file (Perfetto-loadable) to ``path``."""
    data = trace_to_dict(tracer, telemetry)
    nodes = sorted({span["node"] for span in data["spans"] if span["node"] is not None})
    pid_of = {node: index + 1 for index, node in enumerate(nodes)}
    events: List[Dict[str, Any]] = []
    for node, pid in pid_of.items():
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": node},
            }
        )
    for span in data["spans"]:
        pid = pid_of.get(span["node"], 0)
        event: Dict[str, Any] = {
            "ph": "X",
            "name": f"{span['cat']}/{span['name']}",
            "cat": span["cat"],
            "pid": pid,
            "tid": 0,
            "ts": span["ts_ns"] / 1e3,
            "dur": span["dur_ns"] / 1e3,
        }
        args = dict(span.get("args") or {})
        if "parent" in span:
            args["parent_span"] = span["parent"]
        args["span_id"] = span["id"]
        event["args"] = args
        events.append(event)
    for name, points in (data.get("series") or {}).items():
        for ts_ns, value in points:
            events.append(
                {
                    "ph": "C",
                    "name": name,
                    "pid": 0,
                    "tid": 0,
                    "ts": ts_ns / 1e3,
                    "args": {"value": value},
                }
            )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events}, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
