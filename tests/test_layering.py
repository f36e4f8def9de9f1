"""The protocol cores are placed by their registry adapters, never by themselves.

``canopus``, ``epaxos``, ``zab`` and ``raft`` — and the ``broadcast`` and
``kvstore`` layers they stand on — see the world through a runtime only, so
the same code runs on the simulator and on asyncio.  Which host runs which
node is decided in ``repro.protocols``.  A core that imports the simulator,
the adapters or the harness above them would break that, so this walks the
import statements of every core module.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
CORES = ("canopus", "epaxos", "zab", "raft", "broadcast", "kvstore")
FORBIDDEN = ("repro.sim", "repro.protocols", "repro.bench", "repro.workload", "repro.shard")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def test_protocol_cores_import_nothing_from_the_layers_that_place_them():
    scanned, violations = 0, []
    for core in CORES:
        for path in sorted((SRC / core).rglob("*.py")):
            scanned += 1
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for line_number, module in imported_modules(tree):
                if any(module == banned or module.startswith(banned + ".") for banned in FORBIDDEN):
                    violations.append(f"{path.relative_to(SRC.parent)}:{line_number}: {module}")
    assert scanned > 20  # the walk found the packages
    assert not violations, "\n".join(violations)
