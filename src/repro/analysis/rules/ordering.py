"""no-unordered-iteration: set iteration order must never reach events.

``set``/``frozenset`` iteration order depends on element hashes; for
str elements those are salted per process, so iterating a set on the
delivery/protocol path can reorder sends, timers, or log appends and
break the byte-identical fixed-seed contract — typically surfacing as a
digest mismatch three layers away.  The rule flags, in the
deterministic-path packages:

* ``for``-loops and comprehensions whose iterable is statically
  recognisable as a set: a set literal, a ``set(...)``/``frozenset(...)``
  call, a set-union/intersection expression, a local name assigned one
  of those earlier in the same function, a parameter or attribute
  annotated ``Set``/``FrozenSet``/``set``/``frozenset``, or an attribute
  whose class-level annotation in the same module is set-typed;
* order-capturing conversions of such values (``list(s)``, ``tuple(s)``,
  ``"".join(s)``, ``enumerate(s)``);
* ``id(...)`` calls — identity-keyed structures make event order depend
  on allocation addresses.

Wrap the iterable in ``sorted(...)`` to fix a finding, or suppress with
``# detlint: disable=no-unordered-iteration`` when the loop is provably
order-insensitive (e.g. it only mutates a commutative aggregate).
Order-insensitive *consumers* (``len``/``min``/``max``/``any``/``all``/
``sum``/``set``/``frozenset``/``sorted``) are never flagged.
"""

from __future__ import annotations

import ast
from typing import Set

from repro.analysis.core import ModuleInfo, Reporter, Rule

SCOPE_SUBSTRINGS = (
    "repro/sim/",
    "repro/canopus/",
    "repro/epaxos/",
    "repro/raft/",
    "repro/zab/",
    "repro/broadcast/",
    "repro/protocols/",
    "repro/runtime/",
)

#: Consuming these with a set argument is order-insensitive.
SAFE_CONSUMERS = {"len", "min", "max", "any", "all", "sum", "set", "frozenset", "sorted"}

_SET_ANNOTATION_NAMES = {"set", "frozenset", "Set", "FrozenSet", "MutableSet", "AbstractSet"}

_SET_BINOPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


def _annotation_is_set(annotation: ast.AST) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    if isinstance(annotation, ast.Attribute):
        return annotation.attr in _SET_ANNOTATION_NAMES
    if isinstance(annotation, ast.Name):
        return annotation.id in _SET_ANNOTATION_NAMES
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        head = annotation.value.split("[")[0].split(".")[-1].strip()
        return head in _SET_ANNOTATION_NAMES
    return False


class _FunctionScope(ast.NodeVisitor):
    """Collects names/attributes known to hold sets within one function."""

    def __init__(self, module: ModuleInfo, set_attrs: Set[str]) -> None:
        self.module = module
        self.set_attrs = set_attrs  # module-wide set-typed attribute names
        self.set_names: Set[str] = set()

    def is_set_expr(self, node: ast.AST) -> bool:
        if isinstance(node, ast.Set) or isinstance(node, ast.SetComp):
            return True
        if isinstance(node, ast.Call):
            qual = self.module.qualified_name(node.func)
            if qual in ("set", "frozenset"):
                return True
            # s.union(...), s.difference(...), ... on a known set.
            if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "union", "intersection", "difference", "symmetric_difference", "copy"
            ):
                return self.is_set_expr(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_BINOPS):
            return self.is_set_expr(node.left) or self.is_set_expr(node.right)
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        if isinstance(node, ast.Attribute):
            return node.attr in self.set_attrs
        if isinstance(node, ast.IfExp):
            return self.is_set_expr(node.body) or self.is_set_expr(node.orelse)
        return False

    def observe_assign(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):
            if self.is_set_expr(value):
                self.set_names.add(target.id)
            else:
                self.set_names.discard(target.id)

    def observe_annotation(self, target: ast.AST, annotation: ast.AST) -> None:
        if isinstance(target, (ast.Name, ast.arg)) and _annotation_is_set(annotation):
            name = target.id if isinstance(target, ast.Name) else target.arg
            self.set_names.add(name)


def _collect_set_attrs(module: ModuleInfo) -> Set[str]:
    """Attribute names declared set-typed anywhere in the module: class-
    level annotations (dataclass fields) and ``self.x = set()`` style
    assignments.  Name-based, so it deliberately over-approximates —
    that is the right trade for a determinism linter."""
    attrs: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.AnnAssign) and _annotation_is_set(node.annotation):
            target = node.target
            if isinstance(target, ast.Name):
                attrs.add(target.id)
            elif isinstance(target, ast.Attribute):
                attrs.add(target.attr)
        elif isinstance(node, ast.Assign):
            value_is_set = isinstance(node.value, (ast.Set, ast.SetComp)) or (
                isinstance(node.value, ast.Call)
                and module.qualified_name(node.value.func) in ("set", "frozenset")
            )
            if value_is_set:
                for target in node.targets:
                    if isinstance(target, ast.Attribute):
                        attrs.add(target.attr)
    return attrs


class NoUnorderedIterationRule(Rule):
    name = "no-unordered-iteration"
    description = (
        "iteration over set/frozenset values (or id()-keyed structures) on "
        "the delivery/protocol path without sorted(...) — hash order is "
        "process-salted and breaks fixed-seed byte-identity"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        if "repro/analysis/" in module.relpath:
            return False
        return any(part in module.relpath for part in SCOPE_SUBSTRINGS)

    # The whole check runs per-module so local dataflow sees statements
    # in order; the shared node pass is not a good fit for that, so this
    # rule does its own (single) traversal in check_module.
    def check_module(self, module: ModuleInfo, report: Reporter) -> None:
        set_attrs = _collect_set_attrs(module)
        self._walk_scope(module.tree, _FunctionScope(module, set_attrs), module, report)

    # ------------------------------------------------------------------
    def _walk_scope(
        self,
        root: ast.AST,
        scope: _FunctionScope,
        module: ModuleInfo,
        report: Reporter,
    ) -> None:
        for node in ast.iter_child_nodes(root):
            self._walk_scope_stmt(node, scope, module, report)

    def _walk_scope_stmt(
        self,
        node: ast.AST,
        scope: _FunctionScope,
        module: ModuleInfo,
        report: Reporter,
    ) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = _FunctionScope(module, scope.set_attrs)
            args = node.args
            for arg in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                if arg.annotation is not None:
                    inner.observe_annotation(arg, arg.annotation)
            self._walk_scope(node, inner, module, report)
            return
        if isinstance(node, ast.Lambda):
            return
        if isinstance(node, ast.Assign):
            self._check_expr(node.value, scope, module, report)
            for target in node.targets:
                if not isinstance(target, ast.Name):
                    self._check_expr(target, scope, module, report)
                scope.observe_assign(target, node.value)
            return
        if isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._check_expr(node.value, scope, module, report)
            if node.target is not None:
                if not isinstance(node.target, ast.Name):
                    self._check_expr(node.target, scope, module, report)
                scope.observe_annotation(node.target, node.annotation)
                if node.value is not None:
                    scope.observe_assign(node.target, node.value)
            return
        if isinstance(node, (ast.For, ast.AsyncFor)):
            self._check_iterable(node.iter, scope, module, report, context="for-loop")
            self._check_expr(node.iter, scope, module, report, skip_top=True)
            for stmt in list(node.body) + list(node.orelse):
                self._walk_scope_stmt(stmt, scope, module, report)
            return
        if isinstance(node, ast.expr):
            self._check_expr(node, scope, module, report)
            return
        self._walk_scope(node, scope, module, report)

    def _check_expr(
        self,
        expr: ast.AST,
        scope: _FunctionScope,
        module: ModuleInfo,
        report: Reporter,
        skip_top: bool = False,
    ) -> None:
        for node in ast.walk(expr):
            if skip_top and node is expr:
                continue
            if isinstance(node, (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp)):
                order_sensitive = not isinstance(node, (ast.SetComp, ast.DictComp))
                # Dict comprehensions over sets produce hash-ordered dicts —
                # insertion order *is* iteration order downstream.
                if isinstance(node, ast.DictComp):
                    order_sensitive = True
                if order_sensitive:
                    for comp in node.generators:
                        self._check_iterable(
                            comp.iter, scope, module, report, context="comprehension"
                        )
            elif isinstance(node, ast.Call):
                qual = module.qualified_name(node.func)
                if qual in ("list", "tuple", "enumerate", "iter", "next"):
                    for arg in node.args[:1]:
                        self._check_iterable(arg, scope, module, report, context=f"{qual}()")
                elif isinstance(node.func, ast.Attribute) and node.func.attr == "join":
                    for arg in node.args[:1]:
                        self._check_iterable(arg, scope, module, report, context="str.join()")
                elif module.is_builtin_ref(node.func, "id"):
                    report.at(
                        node,
                        "id() makes ordering depend on allocation addresses — "
                        "key by a deterministic identifier instead",
                    )

    def _check_iterable(
        self,
        iterable: ast.AST,
        scope: _FunctionScope,
        module: ModuleInfo,
        report: Reporter,
        context: str,
    ) -> None:
        if scope.is_set_expr(iterable):
            report.at(
                iterable,
                f"{context} iterates a set/frozenset — wrap in sorted(...) "
                "(hash order is process-salted and can reorder events)",
            )
