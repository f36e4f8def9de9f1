"""no-wallclock: sim code must read sim time, never the host clock.

Any wall-clock read under ``repro/`` silently decouples modelled time
from event order — the run still *works* but its timing (and therefore
its commit-log digest) depends on host speed.  The only legitimate
consumers are the bench/report layers, which measure the host on
purpose, so those paths are allowlisted; anything else must go through
``Runtime.now()`` / the simulator clock, or carry an inline
``# detlint: disable=no-wallclock`` with a justification.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleInfo, Reporter, Rule

#: Dotted names that read (or block on) the host clock.
BANNED = {
    "time.time",
    "time.time_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.process_time",
    "time.process_time_ns",
    "time.sleep",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: Modules that measure the host on purpose.  ``repro/bench/`` times
#: benchmark repeats; ``repro/obs/report.py`` renders reports for humans.
ALLOWLIST_SUBSTRINGS = (
    "repro/bench/",
    "repro/obs/report.py",
)


class NoWallclockRule(Rule):
    name = "no-wallclock"
    description = (
        "wall-clock reads (time.time/perf_counter/monotonic/datetime.now/...) "
        "outside the bench/report allowlist; sim code must use sim time"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        if "repro/" not in module.relpath or "repro/analysis/" in module.relpath:
            return False
        return not any(part in module.relpath for part in ALLOWLIST_SUBSTRINGS)

    # A bare *reference* is as dangerous as a call (e.g. storing
    # ``time.monotonic`` as a clock source), so flag Attribute/Name loads
    # that resolve to a banned dotted name — the call node then reports
    # once, at the function position, not twice.
    def visit_Attribute(self, node: ast.Attribute, module: ModuleInfo, report: Reporter) -> None:
        if not isinstance(node.ctx, ast.Load):
            return
        parent = module.parent(node)
        if isinstance(parent, ast.Attribute):
            return  # only report the full chain once, at its head
        qual = module.qualified_name(node)
        if qual in BANNED:
            report.at(node, f"wall-clock read `{qual}` — use sim time (runtime.now())")

    def visit_Name(self, node: ast.Name, module: ModuleInfo, report: Reporter) -> None:
        # `from time import perf_counter` style usage.
        if not isinstance(node.ctx, ast.Load):
            return
        qual = module.imports.get(node.id)
        if qual in BANNED:
            report.at(node, f"wall-clock read `{qual}` — use sim time (runtime.now())")
