"""no-unseeded-random: every random draw must flow from the run's seed.

PR 1 fixed, by hand, fixed-seed runs diverging across processes because
workload keys flowed through the *salted* builtin ``hash()`` and a
module-level RNG.  This rule makes that whole bug class a lint error in
the deterministic-path packages:

* module-level ``random.*`` convenience functions share interpreter-
  global state seeded from the OS — draws depend on import order and on
  every other caller;
* ``random.Random()`` with no arguments seeds from OS entropy;
* ``os.urandom`` / ``uuid.uuid4`` / ``secrets.*`` are entropy by design;
* builtin ``hash()`` is salted per process for str/bytes (PYTHONHASHSEED),
  so anything derived from it diverges across processes — use
  ``zlib.crc32`` as the existing workload code does.

Seeded instances (``random.Random(seed)``, ``simulator.fork_rng(label)``)
are the sanctioned pattern and pass untouched.
"""

from __future__ import annotations

import ast

from repro.analysis.core import ModuleInfo, Reporter, Rule

#: Deterministic-path packages: everything that runs under the simulator
#: or feeds modelled behaviour.
SCOPE_SUBSTRINGS = (
    "repro/sim/",
    "repro/protocols/",
    "repro/canopus/",
    "repro/epaxos/",
    "repro/raft/",
    "repro/zab/",
    "repro/workload/",
    "repro/broadcast/",
    "repro/kvstore/",
    "repro/runtime/",
    "repro/verify/",
)

ENTROPY_CALLS = {
    "os.urandom",
    "uuid.uuid1",
    "uuid.uuid4",
}


class NoUnseededRandomRule(Rule):
    name = "no-unseeded-random"
    description = (
        "module-level random.*, unseeded random.Random(), os.urandom/uuid4/"
        "secrets, or salted builtin hash() in deterministic-path modules; "
        "RNGs must be seeded instances flowing from Simulator.fork_rng"
    )

    def applies_to(self, module: ModuleInfo) -> bool:
        return any(part in module.relpath for part in SCOPE_SUBSTRINGS)

    def visit_Call(self, node: ast.Call, module: ModuleInfo, report: Reporter) -> None:
        qual = module.qualified_name(node.func)
        if qual is None:
            return
        if qual == "random.Random":
            if not node.args and not node.keywords:
                report.at(
                    node,
                    "random.Random() with no seed draws from OS entropy — "
                    "pass a seed or use simulator.fork_rng(label)",
                )
            return
        if qual == "random.SystemRandom":
            report.at(node, "random.SystemRandom is OS entropy — deterministic code cannot use it")
            return
        if qual.startswith("random.") and qual.count(".") == 1:
            report.at(
                node,
                f"module-level `{qual}()` uses the interpreter-global RNG — "
                "use a seeded random.Random instance (simulator.fork_rng)",
            )
            return
        if qual in ENTROPY_CALLS or qual.startswith("secrets."):
            report.at(node, f"`{qual}()` is OS entropy — deterministic code cannot use it")
            return
        if module.is_builtin_ref(node.func, "hash"):
            report.at(
                node,
                "builtin hash() is salted per process (PYTHONHASHSEED) — "
                "use zlib.crc32 for stable key/seed derivation",
            )

    def visit_ImportFrom(self, node: ast.ImportFrom, module: ModuleInfo, report: Reporter) -> None:
        if node.module == "random":
            bad = [a.name for a in node.names if a.name != "Random"]
            if bad:
                report.at(
                    node,
                    f"`from random import {', '.join(bad)}` binds module-level RNG "
                    "functions — import random.Random and seed it",
                )
        elif node.module == "secrets":
            report.at(node, "`secrets` is OS entropy — deterministic code cannot use it")
