"""The protocol cores are placed by their registry adapters, never by themselves.

``canopus``, ``epaxos``, ``zab`` and ``raft`` — and the ``broadcast`` and
``kvstore`` layers they stand on — see the world through a runtime only, so
the same code runs on any implementation of it.  Which host runs which node
is decided in ``repro.protocols``.  A core that imports the simulator,
the adapters or the harness above them would break that, so this walks the
import statements of every core module.

The same layering keeps a simulator run small: it loads the simulator, the
harness and the one protocol it builds, and never asyncio.  The second half
of this file runs each registry system in a fresh interpreter and checks
which modules it loaded (never how long that took), and that the registry
lists and loads the built-in protocols without importing the others.
"""

import ast
import collections
import os
import pathlib
import subprocess
import sys

import pytest

from repro.protocols.registry import BUILTIN_PROTOCOLS

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
CORES = ("canopus", "epaxos", "zab", "raft", "broadcast", "kvstore")
FORBIDDEN = ("repro.sim", "repro.protocols", "repro.bench", "repro.workload")


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            yield node.lineno, node.module


def under(modules, packages):
    """The ``modules`` that are one of ``packages`` or inside one, sorted."""
    return sorted(m for m in modules if any(m == p or m.startswith(p + ".") for p in packages))


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


def test_the_client_plane_imports_nothing_from_repro():
    """Every protocol imports the client types; they must not pull a protocol in."""
    tree = ast.parse((SRC / "runtime" / "messages.py").read_text(encoding="utf-8"))
    imported = [module for _line, module in imported_modules(tree)]
    assert imported  # the walk saw the module's imports
    assert not under(imported, ("repro",))


# ----------------------------------------------------------------------
# What a run loads
# ----------------------------------------------------------------------
REPO = SRC.parents[1]
BUILTINS = ("canopus", "zkcanopus", "epaxos", "zookeeper")
ADAPTERS = BUILTIN_PROTOCOLS

#: Loaded by no simulator run: asyncio, tracing, the linter and the
#: experiment runner.
NEVER_ON_A_RUN = ("asyncio", "repro.obs", "repro.analysis", "repro.bench.runner")
CANOPUS_STACK = ("repro.canopus", "repro.broadcast")
BASELINE_CORES = ("repro.epaxos", "repro.zab")
NOT_LOADED_BY = {
    "canopus": NEVER_ON_A_RUN + BASELINE_CORES,
    "zkcanopus": NEVER_ON_A_RUN + BASELINE_CORES,
    "epaxos": NEVER_ON_A_RUN + CANOPUS_STACK + ("repro.raft",),
    "zookeeper": NEVER_ON_A_RUN + CANOPUS_STACK + ("repro.raft",),
}
#: How many ``repro`` modules that run loads, as ARCHITECTURE "What a run
#: imports" states them.
REPRO_MODULES_LOADED = {"canopus": 44, "zkcanopus": 44, "epaxos": 32, "zookeeper": 32}

#: The imports of the benchmark's pass process (``perf/pass_child.py``),
#: then one build and a few simulated milliseconds of the named system.
RUN_ONE_SYSTEM = """
import sys
import repro.bench.builders
import repro.verify
import repro.workload.generator
from repro.bench.builders import build_system, make_single_dc_topology
from repro.metrics.stats import mean, percentile
from repro.sim.engine import Simulator

simulator = Simulator(seed=1)
system = build_system(sys.argv[1], make_single_dc_topology(simulator, nodes_per_rack=1, racks=3))
system.start()
simulator.run_until(0.01)
"""

PRINT_MODULES = """
for name in sorted(sys.modules):
    if name.split(".")[0] in ("repro", "asyncio"):
        print(name)
"""


def loaded_modules(script, *args):
    """The ``repro`` and ``asyncio`` modules loaded after ``script`` runs in
    a fresh interpreter."""
    result = subprocess.run(
        [sys.executable, "-c", script + PRINT_MODULES, *args],
        env={**os.environ, "PYTHONPATH": str(SRC.parent), "PYTHONDONTWRITEBYTECODE": "1"},
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    return set(result.stdout.split())


def test_every_registry_system_has_a_module_budget():
    from repro.protocols import registered_protocols

    assert tuple(registered_protocols()) == BUILTINS == tuple(NOT_LOADED_BY) == tuple(REPRO_MODULES_LOADED)


@pytest.mark.parametrize("name", BUILTINS)
def test_a_run_loads_only_the_protocol_it_builds(name):
    modules = loaded_modules(RUN_ONE_SYSTEM, name)
    assert ADAPTERS[name] in modules  # the probe really built the system
    assert not under(modules, NOT_LOADED_BY[name])
    assert len(under(modules, ("repro",))) == REPRO_MODULES_LOADED[name]


# ----------------------------------------------------------------------
# A protocol's adapter is imported the first time the protocol is built
# ----------------------------------------------------------------------
def test_listing_the_registry_imports_no_adapter():
    script = (
        "import sys\n"
        "from repro.protocols import registered_protocols\n"
        "print(','.join(registered_protocols()))\n"
    )
    modules = loaded_modules(script)
    assert "repro.protocols.registry" in modules
    assert not under(modules, set(ADAPTERS.values()))


@pytest.mark.parametrize("name", BUILTINS)
def test_asking_for_a_protocol_loads_exactly_its_adapter(name):
    script = """
import sys
from repro.protocols import build_protocol
from repro.sim.engine import Simulator
from repro.sim.topology import build_single_datacenter

topology = build_single_datacenter(Simulator(seed=1), nodes_per_rack=1, racks=3)
assert build_protocol(sys.argv[1], topology).name == sys.argv[1]
"""
    modules = loaded_modules(script, name)
    assert under(modules, set(ADAPTERS.values())) == [ADAPTERS[name]]


def registry_suites(collected):
    """Per file, how many test functions run once for every built-in name.

    ``collected`` is pytest's ``--collect-only -q`` listing.  A function
    parametrised over some built-in names only (say, one case each for
    ``zookeeper`` and ``canopus``) is not a registry suite and counts for
    nothing, so adding one cannot change the count.  A case whose id adds
    more after the name (``[canopus-1]``, a protocol and a seed) counts
    under its name.
    """
    names = collections.defaultdict(set)
    for line in collected:
        function, bracket, param = line.partition("[")
        name = param[:-1].split("-")[0]
        if bracket and name in BUILTINS:
            names[function].add(name)
    return collections.Counter(
        function.split("::")[0] for function, covered in names.items() if covered == set(BUILTINS)
    )


def test_registry_parametrized_suites_keep_every_builtin():
    """A listing that went lazy the wrong way would shrink these suites
    silently: every collected case would still pass."""
    result = subprocess.run(
        [
            sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider",
            "tests/test_protocol_conformance.py", "tests/test_determinism.py", "tests/test_obs.py",
        ],
        env={**os.environ, "PYTHONPATH": str(SRC.parent)},
        cwd=REPO,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    assert registry_suites(result.stdout.splitlines()) == {
        "tests/test_protocol_conformance.py": 13,
        "tests/test_determinism.py": 1,
        "tests/test_obs.py": 1,
    }


def test_a_test_over_some_builtin_names_is_not_a_registry_suite():
    every = [f"tests/test_obs.py::test_report[{name}]" for name in BUILTINS]
    two = ["tests/test_obs.py::test_causality[zookeeper]", "tests/test_obs.py::test_causality[canopus]"]
    other = ["tests/test_obs.py::test_width[3]", "tests/test_obs.py::test_plain"]
    assert registry_suites(every + two + other) == {"tests/test_obs.py": 1}
    seeded = [f"tests/test_obs.py::test_skew[{name}-{seed}]" for name in BUILTINS for seed in (1, 2)]
    assert registry_suites(seeded) == {"tests/test_obs.py": 1}
    # One builtin missing from the listing: the suite is gone, not smaller.
    assert registry_suites(every[:-1] + two) == {}
