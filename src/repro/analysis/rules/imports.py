"""no-unused-import: a name a module imports and never uses.

The generic half of what ``ruff`` (pyflakes F401) checks in CI.  ``ruff``
is not installed everywhere this repository is built, and an import left
behind by a refactor is the one generic finding every change here has had
to look for by hand; this rule makes that check the same everywhere and
lets the detlint gate own it.  Unlike the other rules it is not about the
simulation: it applies to every file it is pointed at (``src tests perf
examples`` in CI).

A name counts as used when it is loaded anywhere in the module, listed in
``__all__``, or named inside a string annotation.  Honoured exemptions:
``__init__.py`` (package façades re-export), ``from __future__`` imports,
star imports, and a ``# noqa`` / ``# noqa: F401`` comment on the import's
line — the spelling ruff already understands, so one comment serves both.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable, Set

from repro.analysis.core import ModuleInfo, Reporter, Rule

_NOQA_RE = re.compile(r"#\s*noqa(?!:)|#\s*noqa:[^#]*\bF401\b", re.IGNORECASE)


def _annotations(tree: ast.AST) -> Iterable[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            for arg in args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]:
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(module: ModuleInfo) -> Set[str]:
    used: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            used.update(
                item.value for item in ast.walk(node.value)
                if isinstance(item, ast.Constant) and isinstance(item.value, str)
            )
    # Forward references: "Runtime", Optional["Runtime"], "deque[Tuple[float, Any]]".
    for annotation in _annotations(module.tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    quoted = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                used.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return used


class NoUnusedImportRule(Rule):
    name = "no-unused-import"
    description = (
        "an imported name the module never uses (pyflakes F401); `# noqa: F401` "
        "and __init__.py re-exports are honoured"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return not module.relpath.endswith("__init__.py")

    def check_module(self, module: ModuleInfo, report: Reporter) -> None:
        used = _used_names(module)
        for node in ast.walk(module.tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound == "*" or bound in used:
                    continue
                if any(_NOQA_RE.search(module.line_text(line)) for line in {node.lineno, alias.lineno}):
                    continue
                report.at(alias, f"`{bound}` is imported and never used")
