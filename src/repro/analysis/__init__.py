"""detlint — AST-based determinism & hot-path invariant linter.

The simulator's load-bearing contract is that fixed-seed runs are
byte-identical across processes, and its hot path leans on a set of
representation conventions (slotted messages pinned by wire-size
goldens, per-type dispatch tables, zero-cost ``_obs`` hooks).  Runtime
tests catch violations of those invariants only after the fact, usually
as a commit-log digest mismatch several layers away from the offending
line.  This package finds them *statically*, at the line that
introduces them::

    python -m repro.analysis src/repro

Architecture
------------
* :mod:`repro.analysis.core` — :class:`Finding`, :class:`Rule`,
  :class:`ModuleInfo` (parsed module + import table + suppression
  comments) and the shared single-pass module visitor that dispatches
  AST nodes to every interested rule.
* :mod:`repro.analysis.rules` — the rule catalogue; each rule is a
  class registered in :data:`repro.analysis.rules.ALL_RULES`.
* :mod:`repro.analysis.runner` — walks the target tree, runs the rules,
  applies inline suppressions (``# detlint: disable=<rule>[,<rule>]``)
  and renders text/JSON reports.  Exit code 0 means clean, 1 means at
  least one finding, 2 means the analyser itself could not run.  There
  is no baseline: every finding that is not suppressed inline fails.
"""

from __future__ import annotations

from repro.analysis.core import Finding, ModuleInfo, Rule
from repro.analysis.runner import AnalysisResult, run_analysis

__all__ = [
    "AnalysisResult",
    "Finding",
    "ModuleInfo",
    "Rule",
    "run_analysis",
]
