"""obs-hook-guard: instrumentation stays zero-cost when tracing is off.

PR 8's observability fabric promises that with no tracer attached every
instrumentation point costs exactly one attribute load.  That holds
only while every hook site keeps the shape::

    if self._obs is not None:
        self._obs.phase_begin(...)

or the local-alias variant used on the hottest paths::

    obs = self._obs
    if obs is not None:
        obs.phase_begin(...)

This rule enforces the pattern structurally:

* every ``if``/ternary test that mentions an ``_obs`` attribute must be
  exactly ``<name>._obs is None`` / ``is not None`` (optionally the
  first operand of an ``and`` chain) where ``<name>`` is a bare local —
  no method calls, no ``self.a.b._obs`` chains, no truthiness tests
  (``if self._obs:`` would invoke ``__bool__`` on a tracer object);
* every *use* of ``<x>._obs.<attr>`` (attribute chain or call through
  the hook) must sit in the matching branch of such a guard.

Assigning the hook (``node._obs = tracer``) and loading it into a local
(``obs = self._obs``) are always allowed.
"""

from __future__ import annotations

import ast
from typing import Optional, Tuple

from repro.analysis.core import ModuleInfo, Reporter, Rule

OBS_ATTR = "_obs"


def _guard_compare(test: ast.AST) -> Optional[Tuple[ast.AST, bool]]:
    """If ``test`` is ``X._obs is None`` / ``is not None``, return
    ``(X._obs attribute node, branch_with_obs_is_body)``; else None."""
    if not isinstance(test, ast.Compare) or len(test.ops) != 1:
        return None
    left = test.left
    comparator = test.comparators[0]
    if not (
        isinstance(left, ast.Attribute)
        and left.attr == OBS_ATTR
        and isinstance(comparator, ast.Constant)
        and comparator.value is None
    ):
        return None
    if isinstance(test.ops[0], ast.IsNot):
        return (left, True)  # `is not None` -> hook usable in the body
    if isinstance(test.ops[0], ast.Is):
        return (left, False)  # `is None` -> hook usable in the orelse
    return None


def _mentions_obs(node: ast.AST) -> bool:
    return any(
        isinstance(child, ast.Attribute) and child.attr == OBS_ATTR for child in ast.walk(node)
    )


def _valid_guard_test(test: ast.AST) -> Optional[Tuple[ast.AST, bool]]:
    """Accept the exact compare, or an `and` chain whose FIRST operand is
    the compare (later operands run only when the hook is present)."""
    direct = _guard_compare(test)
    if direct is not None:
        return direct
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And) and test.values:
        first = _guard_compare(test.values[0])
        if first is not None and first[1]:
            # Only the `is not None` form guards an `and` chain usefully,
            # and the rest of the chain must not re-touch _obs deeper.
            for extra in test.values[1:]:
                if _mentions_obs(extra):
                    return None
            return first
    return None


def _single_load_base(attribute: ast.AST) -> bool:
    """True when the ``X`` of ``X._obs`` is a bare name — a single
    attribute load, per the zero-cost contract."""
    return isinstance(attribute, ast.Attribute) and isinstance(attribute.value, ast.Name)


class ObsHookGuardRule(Rule):
    name = "obs-hook-guard"
    description = (
        "every _obs instrumentation point must follow the "
        "`if self._obs is not None:` single-attribute-load guard pattern "
        "(or the `obs = self._obs` local-alias variant)"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return "repro/" in module.relpath and "repro/analysis/" not in module.relpath

    # -- guard shape ----------------------------------------------------
    def visit_If(self, node: ast.If, module: ModuleInfo, report: Reporter) -> None:
        self._check_test(node.test, module, report)

    def visit_IfExp(self, node: ast.IfExp, module: ModuleInfo, report: Reporter) -> None:
        self._check_test(node.test, module, report)

    def _check_test(self, test: ast.AST, module: ModuleInfo, report: Reporter) -> None:
        if not _mentions_obs(test):
            return
        guard = _valid_guard_test(test)
        if guard is None:
            report.at(
                test,
                "guard on _obs must be exactly `<name>._obs is (not) None` "
                "(optionally followed by `and ...`) — truthiness tests, call "
                "results, and attribute chains break the one-load contract",
            )
            return
        attribute, _branch = guard
        if not _single_load_base(attribute):
            report.at(
                attribute,
                "the _obs guard must load through a bare local "
                "(`self._obs` / `host._obs`), not an attribute chain — "
                "each extra hop is paid on every traversal with tracing off",
            )

    # -- usage sites ----------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute, module: ModuleInfo, report: Reporter) -> None:
        # A *use* is `X._obs` loaded and then dereferenced further:
        # parent is an Attribute (or a Call through it).
        if node.attr != OBS_ATTR or not isinstance(node.ctx, ast.Load):
            return
        parent = module.parent(node)
        if not isinstance(parent, ast.Attribute):
            return  # bare load (alias assign, compare, argument) is fine
        if not self._guarded(node, module):
            report.at(
                node,
                f"use of `{ast.unparse(parent)}` outside an "
                "`if <name>._obs is not None:` guard — hook calls on an "
                "unguarded path either crash when tracing is off or hide a "
                "second attribute load; use the guard or the local-alias "
                "pattern",
            )

    def _guarded(self, node: ast.Attribute, module: ModuleInfo) -> bool:
        child: ast.AST = node
        for ancestor in module.ancestors(node):
            if isinstance(ancestor, ast.If):
                guard = _valid_guard_test(ancestor.test)
                if guard is not None:
                    _attr, usable_in_body = guard
                    in_body = any(child is stmt or self._contains(stmt, node) for stmt in (
                        ancestor.body if usable_in_body else ancestor.orelse
                    ))
                    if in_body:
                        return True
            elif isinstance(ancestor, ast.IfExp):
                guard = _valid_guard_test(ancestor.test)
                if guard is not None:
                    _attr, usable_in_body = guard
                    branch = ancestor.body if usable_in_body else ancestor.orelse
                    if branch is node or self._contains(branch, node):
                        return True
            elif isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                return False  # guards do not cross scope boundaries
            child = ancestor
        return False

    @staticmethod
    def _contains(root: ast.AST, target: ast.AST) -> bool:
        return any(child is target for child in ast.walk(root))
