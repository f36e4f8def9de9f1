"""Core framework: findings, rules, parsed modules, shared visitor pass.

Every rule is a class with ``visit_<NodeType>`` hook methods; the
:class:`ModuleWalker` walks each module's AST exactly once and fans each
node out to every rule that declared interest in its type, so adding a
rule never adds a tree traversal.  Rules may additionally implement

* ``check_module(module, report)`` — whole-module logic run before the
  node pass, and
* ``finish(context, report_for)`` — cross-module logic run once after
  every module has been walked (see the ``slots-required`` and
  ``dispatch-complete`` rules, which compare ASTs against each other and
  against committed runtime artifacts).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple


@dataclass
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str  #: repo-relative POSIX path
    line: int
    col: int
    message: str
    line_text: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: [{self.rule}] {self.message}"

    def as_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "line_text": self.line_text,
        }


#: A comment ``detlint: disable=rule-a,rule-b`` on the offending line.
_SUPPRESS_RE = re.compile(r"#\s*detlint:\s*disable=([A-Za-z0-9_,\- ]+)")


def parse_suppressions(source: str) -> Dict[int, Set[str]]:
    """Line -> rule names disabled there.  Only real comments count: the
    same text inside a string literal (a lint fixture) suppresses nothing."""
    suppressions: Dict[int, Set[str]] = {}
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type != tokenize.COMMENT:
            continue
        match = _SUPPRESS_RE.search(token.string)
        if match is not None:
            names = {part.strip() for part in match.group(1).split(",") if part.strip()}
            if names:
                suppressions[token.start[0]] = names
    return suppressions


class ModuleInfo:
    """A parsed module plus the derived tables every rule shares."""

    def __init__(self, path: str, relpath: str, source: str) -> None:
        self.path = path
        #: Repo-relative POSIX path; rules scope themselves by matching
        #: substrings/suffixes of this (never absolute paths, so fixture
        #: trees that mimic the layout scope identically).
        self.relpath = relpath
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=path)
        self.suppressions = parse_suppressions(source)
        #: ``(line, rule)`` suppressions that silenced at least one finding.
        self.used_suppressions: Set[Tuple[int, str]] = set()
        #: alias -> dotted origin, e.g. {"np": "numpy", "pc": "time.perf_counter"}
        self.imports: Dict[str, str] = {}
        #: every name bound by assignment/def/class/arg anywhere in the
        #: module — used to tell shadowed builtins from real builtins.
        self.bound_names: Set[str] = set()
        self.parents: Dict[ast.AST, ast.AST] = {}
        self._index()

    # ------------------------------------------------------------------
    def _index(self) -> None:
        for node in ast.walk(self.tree):
            for child in ast.iter_child_nodes(node):
                self.parents[child] = node
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    self.imports[alias.asname or top] = alias.name if alias.asname else top
            elif isinstance(node, ast.ImportFrom):
                prefix = ("." * node.level) + (node.module or "")
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    self.imports[alias.asname or alias.name] = f"{prefix}.{alias.name}"
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                self.bound_names.add(node.name)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = node.args
                    for arg in (
                        list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
                        + ([args.vararg] if args.vararg else [])
                        + ([args.kwarg] if args.kwarg else [])
                    ):
                        self.bound_names.add(arg.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                self.bound_names.add(node.id)

    # ------------------------------------------------------------------
    def line_text(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    def suppressed(self, lineno: int, rule: str) -> bool:
        names = self.suppressions.get(lineno)
        if names is None or rule not in names:
            return False
        self.used_suppressions.add((lineno, rule))
        return True

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self.parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterable[ast.AST]:
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def qualified_name(self, node: ast.AST) -> Optional[str]:
        """Resolve ``node`` (a Name/Attribute chain) to a dotted name
        through the module's import aliases, or ``None`` if it is not a
        plain dotted reference.  Unimported bare names resolve to
        themselves, so builtins come back as e.g. ``"hash"``."""
        parts: List[str] = []
        current = node
        while isinstance(current, ast.Attribute):
            parts.append(current.attr)
            current = current.value
        if not isinstance(current, ast.Name):
            return None
        base = self.imports.get(current.id, current.id)
        parts.append(base)
        return ".".join(reversed(parts))

    def is_builtin_ref(self, node: ast.AST, name: str) -> bool:
        """True when ``node`` is a bare reference to builtin ``name``
        (not shadowed by any module-level or local binding)."""
        return (
            isinstance(node, ast.Name)
            and node.id == name
            and name not in self.bound_names
            and name not in self.imports
        )


class Rule:
    """Base class for detlint rules.

    Subclasses set :attr:`name` and :attr:`description`, constrain
    themselves with :meth:`applies_to`, and implement any combination of
    ``visit_<NodeType>`` hooks, :meth:`check_module` and :meth:`finish`.
    """

    name: str = ""
    description: str = ""

    def applies_to(self, module: ModuleInfo) -> bool:
        return True

    def check_module(self, module: ModuleInfo, report: "Reporter") -> None:
        return None

    def finish(self, context: "object", report_for: Callable[[ModuleInfo], "Reporter"]) -> None:
        return None


class Reporter:
    """Per-(rule, module) finding sink that applies inline suppressions."""

    def __init__(self, rule: Rule, module: ModuleInfo, findings: List[Finding]) -> None:
        self.rule = rule
        self.module = module
        self.findings = findings
        self.suppressed_count = 0

    def at(self, node_or_line, message: str, col: Optional[int] = None) -> None:
        if isinstance(node_or_line, ast.AST):
            line = getattr(node_or_line, "lineno", 1)
            col = getattr(node_or_line, "col_offset", 0) + 1
        else:
            line = int(node_or_line)
            col = 1 if col is None else col
        if self.module.suppressed(line, self.rule.name):
            self.suppressed_count += 1
            return
        self.findings.append(
            Finding(
                rule=self.rule.name,
                path=self.module.relpath,
                line=line,
                col=col,
                message=message,
                line_text=self.module.line_text(line),
            )
        )


@dataclass
class WalkResult:
    findings: List[Finding] = field(default_factory=list)
    suppressed: int = 0


class ModuleWalker:
    """Single AST pass dispatching each node to every interested rule."""

    def __init__(self, rules: List[Rule]) -> None:
        self.rules = rules
        # rule -> {node type name -> bound visit method}, computed once.
        self._interest: List[Tuple[Rule, Dict[str, Callable]]] = []
        for rule in rules:
            table: Dict[str, Callable] = {}
            for attr in dir(rule):
                if attr.startswith("visit_"):
                    table[attr[len("visit_"):]] = getattr(rule, attr)
            self._interest.append((rule, table))

    def walk(self, module: ModuleInfo) -> WalkResult:
        result = WalkResult()
        active: List[Tuple[Dict[str, Callable], Reporter]] = []
        reporters: List[Reporter] = []
        for rule, table in self._interest:
            if not rule.applies_to(module):
                continue
            reporter = Reporter(rule, module, result.findings)
            reporters.append(reporter)
            rule.check_module(module, reporter)
            if table:
                active.append((table, reporter))
        if active:
            for node in ast.walk(module.tree):
                type_name = node.__class__.__name__
                for table, reporter in active:
                    handler = table.get(type_name)
                    if handler is not None:
                        handler(node, module, reporter)
        result.suppressed = sum(r.suppressed_count for r in reporters)
        return result
