"""Human-readable report over an exported trace.

``python -m repro.obs.report TRACE.json [--top N]`` prints:

* a per-phase latency breakdown (count / mean / p50 / p95 / p99 per
  protocol phase),
* a transport-hop summary per message type,
* a top-N slowest-request drill-down (the request root spans plus the
  hops and phases recorded for each),
* the sampled timeseries (min / mean / max).

Percentile math comes from :mod:`repro.metrics.stats` so the obs report
and the bench summaries agree on one definition.
"""

from __future__ import annotations

import argparse
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.metrics.stats import percentile

__all__ = ["build_report", "main"]


def _fmt_ms(ns: float) -> str:
    return f"{ns / 1e6:9.3f}"


def _stats_line(label: str, durs_ns: List[int]) -> str:
    durs = sorted(durs_ns)
    mean = sum(durs) / len(durs)
    return (
        f"  {label:<40} n={len(durs):>6}  mean={_fmt_ms(mean)}ms"
        f"  p50={_fmt_ms(percentile(durs, 0.50))}ms"
        f"  p95={_fmt_ms(percentile(durs, 0.95))}ms"
        f"  p99={_fmt_ms(percentile(durs, 0.99))}ms"
    )


def build_report(data: Dict[str, Any], top: int = 5) -> str:
    """Render the report for a trace dict (see ``repro.obs.trace_to_dict``)."""
    spans = data.get("spans", [])
    lines: List[str] = []

    # ------------------------------------------------------------- phases
    phases: Dict[str, Dict[str, List[int]]] = {}
    for span in spans:
        cat = span["cat"]
        if cat.startswith("phase:"):
            protocol = cat[len("phase:"):]
            phases.setdefault(protocol, {}).setdefault(span["name"], []).append(span["dur_ns"])
    lines.append("== Per-phase latency breakdown ==")
    if not phases:
        lines.append("  (no phase spans recorded)")
    for protocol in sorted(phases):
        lines.append(f" protocol {protocol}:")
        for phase in sorted(phases[protocol]):
            lines.append(_stats_line(phase, phases[protocol][phase]))

    # --------------------------------------------------------------- hops
    hops: Dict[str, List[int]] = {}
    for span in spans:
        if span["cat"] == "hop":
            hops.setdefault(span["name"], []).append(span["dur_ns"])
    lines.append("")
    lines.append("== Transport hops (queueing + propagation) ==")
    if not hops:
        lines.append("  (no hops recorded)")
    for name in sorted(hops):
        lines.append(_stats_line(name, hops[name]))

    # ----------------------------------------------------- slow requests
    requests = [span for span in spans if span["cat"] == "request"]
    requests.sort(key=lambda s: (-s["dur_ns"], s["id"]))
    children: Dict[int, List[Dict[str, Any]]] = {}
    by_rid: Dict[int, List[Dict[str, Any]]] = {}
    for span in spans:
        parent = span.get("parent")
        if parent is not None:
            children.setdefault(parent, []).append(span)
        args = span.get("args") or {}
        if span["cat"] != "request" and "rid" in args:
            by_rid.setdefault(args["rid"], []).append(span)
        for rid in args.get("rids", ()):
            by_rid.setdefault(rid, []).append(span)
    lines.append("")
    lines.append(f"== Top {top} slowest requests ==")
    if not requests:
        lines.append("  (no request spans recorded)")
    for root in requests[:top]:
        args = root.get("args") or {}
        lines.append(
            f" request rid={args.get('rid')} op={args.get('op')} key={args.get('key')}"
            f" client={root['node']} latency={_fmt_ms(root['dur_ns'])}ms"
        )
        related: List[Dict[str, Any]] = []
        seen = {root["id"]}
        frontier = [root["id"]]
        while frontier:
            nxt: List[int] = []
            for span_id in frontier:
                for child in children.get(span_id, ()):
                    if child["id"] not in seen:
                        seen.add(child["id"])
                        related.append(child)
                        nxt.append(child["id"])
            frontier = nxt
        rid = args.get("rid")
        for span in by_rid.get(rid, ()):
            if span["id"] not in seen:
                seen.add(span["id"])
                related.append(span)
        related.sort(key=lambda s: (s["ts_ns"], s["id"]))
        for span in related[:20]:
            lines.append(
                f"   [{_fmt_ms(span['ts_ns'])}ms +{_fmt_ms(span['dur_ns'])}ms]"
                f" {span['cat']}/{span['name']} @{span['node']}"
            )
        if len(related) > 20:
            lines.append(f"   ... {len(related) - 20} more spans")

    # --------------------------------------------------------- telemetry
    series = data.get("series") or {}
    lines.append("")
    lines.append("== Sampled timeseries ==")
    if not series:
        lines.append("  (no samples recorded)")
    for name in sorted(series):
        values = [value for _, value in series[name]]
        if not values:
            continue
        lines.append(
            f"  {name:<40} n={len(values):>5}  min={min(values):10.2f}"
            f"  mean={sum(values) / len(values):10.2f}  max={max(values):10.2f}"
        )
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.report",
        description="Print per-phase latency breakdowns from an exported trace.",
    )
    parser.add_argument("trace", help="path to a trace JSON file (from --trace / export_json)")
    parser.add_argument("--top", type=int, default=5, help="slowest requests to drill into")
    args = parser.parse_args(argv)
    with open(args.trace) as fh:
        data = json.load(fh)
    print(build_report(data, top=args.top))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
