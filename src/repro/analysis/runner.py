"""Analysis orchestration and the ``python -m repro.analysis`` CLI.

Exit-code contract (relied on by CI):

* ``0`` — no findings (inline-suppressed ones are counted, not reported);
* ``1`` — at least one finding;
* ``2`` — the analyser itself failed (unparseable target, bad flags).

There is no baseline: a finding is fixed, or suppressed inline with a
``# detlint: disable=<rule>`` comment that says why.  A suppression that
silences nothing is itself a finding (``unused-suppression``), so a
comment cannot outlive the finding it was written for.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from repro.analysis.context import ParseFailure, RepoContext
from repro.analysis.core import Finding, ModuleInfo, ModuleWalker, Reporter
from repro.analysis.rules import ALL_RULES


@dataclass
class AnalysisResult:
    #: Ordered by path, line, column and rule.
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0
    modules_scanned: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def as_dict(self) -> Dict[str, object]:
        return {
            "version": 2,
            "summary": {
                "modules_scanned": self.modules_scanned,
                "findings": len(self.findings),
                "suppressed": self.suppressed,
                "exit_code": self.exit_code,
            },
            "findings": [f.as_dict() for f in self.findings],
        }


def run_analysis(
    targets: Sequence[str],
    repo_root: str = ".",
    rules: Optional[Sequence[type]] = None,
) -> AnalysisResult:
    """Run every rule over ``targets``; ``rules`` defaults to :data:`ALL_RULES`."""
    context = RepoContext(repo_root, list(targets))
    rule_instances = [cls() for cls in (rules if rules is not None else ALL_RULES)]
    walker = ModuleWalker(rule_instances)

    result = AnalysisResult(modules_scanned=len(context.modules))
    for module in context.modules:
        walked = walker.walk(module)
        result.findings.extend(walked.findings)
        result.suppressed += walked.suppressed

    # Cross-module passes: reporters append straight into the shared list.
    finish_reporters: List[Reporter] = []
    for rule in rule_instances:
        def report_for(module, rule=rule):
            reporter = Reporter(rule, module, result.findings)
            finish_reporters.append(reporter)
            return reporter

        rule.finish(context, report_for)
    result.suppressed += sum(r.suppressed_count for r in finish_reporters)
    ran = {rule.name for rule in rule_instances}
    known = {cls.name for cls in ALL_RULES}
    for module in context.modules:
        result.findings.extend(_unused_suppressions(module, ran, known))
    result.findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return result


def _unused_suppressions(module: ModuleInfo, ran: Set[str], known: Set[str]) -> List[Finding]:
    """A finding per suppressed name that silenced nothing on its line:
    a rule that ran, or a name that is no rule at all.  A rule left out of
    this run may still have findings there, so its name is not judged."""
    findings = []
    for line, names in sorted(module.suppressions.items()):
        for name in sorted(names):
            if (line, name) in module.used_suppressions or (name in known and name not in ran):
                continue
            findings.append(
                Finding(
                    rule="unused-suppression",
                    path=module.relpath,
                    line=line,
                    col=1,
                    message=f"`# detlint: disable={name}` suppresses no finding on this line — delete it",
                    line_text=module.line_text(line),
                )
            )
    return findings


def render_text(result: AnalysisResult) -> str:
    lines = [finding.render() for finding in result.findings]
    count = len(result.findings)
    lines.append(
        f"detlint: {result.modules_scanned} modules, "
        f"{count} finding{'s' if count != 1 else ''} ({result.suppressed} suppressed)"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    """The command line of :func:`main`; builds nothing and runs nothing."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="detlint: AST-based determinism & hot-path invariant linter",
    )
    parser.add_argument(
        "targets", nargs="*", default=["src"],
        help="files or directories to analyse (default: src)",
    )
    parser.add_argument(
        "--repo-root", default=".",
        help="repository root for relative paths and cross-checked artifacts "
        "like tests/wire_golden.py (default: cwd)",
    )
    parser.add_argument(
        "--json", metavar="PATH", default=None,
        help="also write machine-readable findings JSON (use '-' for stdout)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)

    if args.list_rules:
        for cls in ALL_RULES:
            print(f"{cls.name:24s} {cls.description}")
        return 0

    try:
        result = run_analysis(args.targets, repo_root=args.repo_root)
    except ParseFailure as exc:
        print(f"detlint: cannot parse {exc.path}: {exc.error}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"detlint: {exc}", file=sys.stderr)
        return 2

    print(render_text(result))
    if args.json:
        payload = json.dumps(result.as_dict(), indent=2)
        if args.json == "-":
            print(payload)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload + "\n")
    return result.exit_code
