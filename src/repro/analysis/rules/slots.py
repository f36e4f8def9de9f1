"""slots-required: hot-path message types stay slotted and golden-pinned.

PR 7's hot-path representation work leaned on two commitments: every
message object is slotted (``__slots__`` or ``@dataclass(slots=True)``),
and every ``wire_size()`` is pinned by the golden table so modelled
timing cannot drift silently.  This rule makes both structural:

* every non-Enum class defined in a ``*/messages.py`` module, every
  class anywhere in scope that defines ``wire_size``, and the configured
  hot-path carriers (``Packet``) must declare slots;
* every class with a ``wire_size`` method must appear in the
  ``WIRE_COVERED`` coverage literal of ``tests/wire_golden.py`` (the
  importable data form of the golden table), checked statically via
  ``ast.literal_eval`` — and entries in ``WIRE_COVERED`` pointing at
  classes that no longer exist are reported as stale.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.core import ModuleInfo, Reporter, Rule

#: Hot-path carrier classes that must be slotted even though they have
#: no ``wire_size`` of their own (their size derives from the payload).
EXTRA_HOTPATH = {
    ("repro/sim/network.py", "Packet"),
}

#: Repo-relative path of the golden coverage data (see tests/wire_golden.py).
GOLDEN_DATA_PATH = "tests/wire_golden.py"
GOLDEN_DATA_VARIABLE = "WIRE_COVERED"


def _has_slots(node: ast.ClassDef) -> bool:
    for stmt in node.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
        ):
            return True
        if (
            isinstance(stmt, ast.AnnAssign)
            and isinstance(stmt.target, ast.Name)
            and stmt.target.id == "__slots__"
        ):
            return True
    for decorator in node.decorator_list:
        if isinstance(decorator, ast.Call):
            for keyword in decorator.keywords:
                if keyword.arg == "slots" and isinstance(keyword.value, ast.Constant):
                    if keyword.value.value is True:
                        return True
    return False


def _is_exempt_base(node: ast.ClassDef, module: ModuleInfo) -> bool:
    """Enums and NamedTuples manage their own storage; ABCs/Exceptions
    are not wire objects."""
    for base in node.bases:
        qual = module.qualified_name(base) or ""
        tail = qual.split(".")[-1]
        if tail in ("Enum", "IntEnum", "Flag", "IntFlag", "NamedTuple", "TypedDict", "ABC"):
            return True
        if tail.endswith("Error") or tail.endswith("Exception"):
            return True
    return False


def _defines_wire_size(node: ast.ClassDef) -> bool:
    return any(
        isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) and stmt.name == "wire_size"
        for stmt in node.body
    )


class SlotsRequiredRule(Rule):
    name = "slots-required"
    description = (
        "message/hot-path classes must declare __slots__ (or "
        "dataclass(slots=True)) and every wire_size-bearing class must be "
        "pinned in the wire-size golden table (tests/wire_golden.py)"
    )

    def __init__(self) -> None:
        # (module, class node) pairs with wire_size, gathered during the
        # pass and cross-checked against the golden data in finish().
        self._candidates: List[Tuple[ModuleInfo, ast.ClassDef]] = []

    def applies_to(self, module: ModuleInfo) -> bool:
        return "repro/" in module.relpath and "repro/analysis/" not in module.relpath

    def visit_ClassDef(self, node: ast.ClassDef, module: ModuleInfo, report: Reporter) -> None:
        in_messages_module = module.relpath.endswith("/messages.py")
        has_wire_size = _defines_wire_size(node)
        is_extra = any(
            module.relpath.endswith(path) and node.name == name for path, name in EXTRA_HOTPATH
        )
        if not (in_messages_module or has_wire_size or is_extra):
            return
        if _is_exempt_base(node, module):
            return
        if not _has_slots(node):
            report.at(
                node,
                f"hot-path class `{node.name}` must declare __slots__ "
                "(or @dataclass(slots=True)) — unslotted instances grow a "
                "__dict__ and regress the PR 7 representation work",
            )
        if has_wire_size:
            self._candidates.append((module, node))

    def finish(self, context, report_for) -> None:
        candidates = self._candidates
        self._candidates = []
        if not candidates:
            return
        try:
            covered_raw = context.load_artifact_literal(GOLDEN_DATA_PATH, GOLDEN_DATA_VARIABLE)
        except ValueError as exc:
            module, node = candidates[0]
            report_for(module).at(node, f"wire-size golden data unreadable: {exc}")
            return
        covered: Dict[str, Set[str]] = {}
        if covered_raw is not None:
            for path, names in covered_raw.items():
                covered[str(path)] = {str(n) for n in names}

        defined: Dict[str, Set[str]] = {}
        for module, node in candidates:
            defined.setdefault(module.relpath, set()).add(node.name)
            listed = self._lookup(covered, module.relpath)
            if listed is None or node.name not in listed:
                report_for(module).at(
                    node,
                    f"`{node.name}` defines wire_size but has no golden row: "
                    f"add it to {GOLDEN_DATA_VARIABLE} in {GOLDEN_DATA_PATH} "
                    "with a pinned byte size",
                )

        # Reverse direction: golden entries whose class vanished are stale.
        for path, names in sorted(covered.items()):
            module = self._module_for(context, path)
            if module is None:
                continue  # module outside the scanned targets — not our call
            present = defined.get(module.relpath, set())
            for name in sorted(names - present):
                report_for(module).at(
                    1,
                    f"stale golden entry: {GOLDEN_DATA_PATH} lists `{name}` for "
                    f"{path} but the class defines no wire_size there",
                )

    @staticmethod
    def _lookup(covered: Dict[str, Set[str]], relpath: str) -> Optional[Set[str]]:
        """Match a scanned module against coverage keys by path suffix, so
        fixture trees rooted elsewhere still resolve."""
        if relpath in covered:
            return covered[relpath]
        for path, names in covered.items():
            if relpath.endswith(path) or path.endswith(relpath):
                return names
        return None

    @staticmethod
    def _module_for(context, covered_path: str) -> Optional[ModuleInfo]:
        module = context.module_at(covered_path)
        if module is not None:
            return module
        for candidate in context.modules:
            if candidate.relpath.endswith(covered_path) or covered_path.endswith(candidate.relpath):
                return candidate
        return None
