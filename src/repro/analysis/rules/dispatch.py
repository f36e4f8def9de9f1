"""dispatch-complete: every deliverable message type has a dispatch entry.

PR 7 replaced each protocol's ``isinstance`` chain with a per-type
``self._dispatch = {MessageType: handler, ...}`` table built at init.
The failure mode that leaves open: add a message class, forget the
table entry, and the message is silently *dropped* — which surfaces
(hours later) as a stalled saturation run or a digest mismatch, not as
an error.  This cross-module AST check makes the omission a lint
failure instead.

For each (messages module → node module) pair — derived by convention
(``X/messages.py`` → ``X/node.py``) plus the explicit pairs in
:data:`EXTRA_PAIRS` — every class in the messages module that defines
``wire_size`` must appear as a key in some ``_dispatch`` dict literal of
the node module.  Payload-only classes (carried inside other messages)
are exempted with an inline ``# detlint: disable=dispatch-complete`` on
the class line, with a comment saying why.  The client plane
(``repro/runtime/messages.py``) pairs with no node module, so it needs no
exemption.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.analysis.core import ModuleInfo, Rule
from repro.analysis.rules.slots import _defines_wire_size

#: Explicit (messages module suffix, node module suffix) pairs that the
#: ``X/messages.py -> X/node.py`` convention cannot derive.  A module
#: paired with itself hosts both its message classes and its dispatch
#: table (the one-file raft KV adapter).
EXTRA_PAIRS = [
    ("repro/canopus/membership.py", "repro/canopus/node.py"),
    ("repro/protocols/raft_kv.py", "repro/protocols/raft_kv.py"),
]

#: Name of the handler-table attribute the protocols build at init.
DISPATCH_ATTR = "_dispatch"


def _dispatch_keys(module: ModuleInfo) -> Optional[Set[str]]:
    """Class names keyed in any ``self._dispatch = {...}`` dict literal
    (merged across tables); ``None`` when the module has no such table."""
    keys: Optional[Set[str]] = None
    for node in ast.walk(module.tree):
        value = None
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
            value = node.value
        else:
            continue
        if value is None or not isinstance(value, ast.Dict):
            continue
        if not any(
            isinstance(t, ast.Attribute) and t.attr == DISPATCH_ATTR for t in targets
        ):
            continue
        if keys is None:
            keys = set()
        for key in value.keys:
            if isinstance(key, ast.Name):
                keys.add(key.id)
            elif isinstance(key, ast.Attribute):
                keys.add(key.attr)
    return keys


class DispatchCompleteRule(Rule):
    name = "dispatch-complete"
    description = (
        "every wire message class must be keyed in its protocol's per-type "
        "_dispatch table (built at init) — otherwise deliveries of the new "
        "type are silently dropped"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return False  # cross-module only; all work happens in finish()

    def finish(self, context, report_for) -> None:
        pairs: List[tuple] = []
        for module in context.modules:
            if module.relpath.endswith("/messages.py"):
                node_relpath = module.relpath[: -len("messages.py")] + "node.py"
                node_module = context.module_at(node_relpath)
                if node_module is not None:
                    pairs.append((module, node_module))
        for messages_suffix, node_suffix in EXTRA_PAIRS:
            messages_module = self._first_matching(context, messages_suffix)
            node_module = self._first_matching(context, node_suffix)
            if messages_module is not None and node_module is not None:
                pairs.append((messages_module, node_module))

        for messages_module, node_module in pairs:
            keys = _dispatch_keys(node_module)
            reporter = report_for(messages_module)
            for node in ast.walk(messages_module.tree):
                if not isinstance(node, ast.ClassDef) or not _defines_wire_size(node):
                    continue
                if keys is None:
                    reporter.at(
                        node,
                        f"{node_module.relpath} declares no `{DISPATCH_ATTR}` dict "
                        f"literal, so `{node.name}` (and every other message type) "
                        "has no per-type dispatch entry",
                    )
                    continue
                if node.name not in keys:
                    reporter.at(
                        node,
                        f"message class `{node.name}` is not keyed in "
                        f"{node_module.relpath}'s `{DISPATCH_ATTR}` table — "
                        "deliveries would be silently dropped; add a handler "
                        "entry, or suppress with a comment if it is payload-only",
                    )

    @staticmethod
    def _first_matching(context, suffix: str) -> Optional[ModuleInfo]:
        matches = context.modules_matching(suffix)
        return matches[0] if matches else None
