"""Doc references in the code must not go stale.

A reference to a top-level Markdown file must name one that exists.  Scope:
``src/``, ``examples/`` and the top-level ``*.md`` documents.  ``perf/`` keeps its own README and is left out.  A reference is
a bare ``NAME.md``; ``perf/README.md`` or ``skills/verify/SKILL.md`` name a
path, not a top-level file.

A ROADMAP item is cited by its title, never by its number: items are
renumbered whenever the ROADMAP is re-anchored.  Scope: ``src/``,
``tests/`` and ``examples/``.

A ``--flag`` written after ``repro.bench.runner`` or ``python -m
repro.analysis`` must be an option of that command's ``build_parser()``.
Scope: the documents above plus the CI workflow and the verify skill.  The
command runs to the end of its line, or, when it opens inside a code span,
to the span's closing backtick on a later line.

The code block of ARCHITECTURE's "Adding a protocol" section must run: it
is executed with a stub ``MyNode`` and ``MyConfig`` and built on a
simulated and an asyncio topology.

A code span in ARCHITECTURE.md or the verify skill that is exactly a
capitalized name, optionally followed by ``.member`` (and ``()``), must name
a class defined under ``src/repro`` or ``tests``; the member must be a
method, a class attribute or a ``self.`` assignment of that class or one of
its bases.  Builtin names (``None``, ``ValueError``) are left alone.

Code that was deleted must not be named as if it were still there: the old
benchmark suite and its figure CLI, the experiment definitions, the storage
model, the write leases, the options no caller set (closed-loop clients,
Zipf keys, the lease fraction), detlint's baseline and severity levels,
the sharding subsystem with its benchmark, checkers and example, the ideal
super-leaf broadcast with its factory and interface, the summary
statistics nobody called, the znode tree with its exceptions, and the Raft
KV baseline with its read modes, read-index rounds and leader lease.  Scope:
the documents above, ``tests/``, the CI workflow and the verify skill; the
plans and history keep their records.  A removed constructor option is
refused with a ``TypeError``, and a removed command-line flag with a usage
error, never silently accepted.

The CI tests job must install every third-party module the tier-1 tests
import: its ``pip install`` line is parsed and compared with the top-level
imports of ``tests/*.py`` and ``perf/test_perf_bench.py``.
"""

import ast
import builtins
import importlib
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Plans and history name files that are gone or still to be written.
NARRATIVE = {"ISSUE.md", "REVIEW.md", "ROADMAP.md", "CHANGES.md"}
BARE_MARKDOWN_NAME = re.compile(r"(?<![\w/.-])([A-Za-z_][\w-]*\.md)\b")
#: "ROADMAP", then "item" or "items" and a digit, also across a line break.
NUMBERED_ROADMAP_ITEM = re.compile(r"ROADMAP\s+items?\s+\d")
RUNNER = re.compile(r"repro\.bench\.runner\b")
#: ``repro.analysis`` itself, not one of its submodules.
ANALYSIS = re.compile(r"repro\.analysis(?![\w.])")
#: Each command: its pattern, the module whose ``build_parser()`` is its
#: whole CLI, and how many flags the scan must at least find.
COMMANDS = {
    "repro.bench.runner": (RUNNER, "repro.bench.runner", 10),
    "repro.analysis": (ANALYSIS, "repro.analysis.runner", 2),
}
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
CLASS_REFERENCE = re.compile(r"([A-Z][a-z]\w*)(?:\.(\w+))?(?:\(\))?")


def documents():
    for directory in ("src", "examples"):
        for path in sorted((ROOT / directory).rglob("*")):
            if path.suffix in (".py", ".md"):
                yield path
    for path in sorted(ROOT.glob("*.md")):
        if path.name not in NARRATIVE:
            yield path


def test_every_referenced_top_level_markdown_file_exists():
    scanned, dangling = 0, []
    for path in documents():
        scanned += 1
        for line_number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
            for name in BARE_MARKDOWN_NAME.findall(line):
                if not (ROOT / name).is_file():
                    dangling.append(f"{path.relative_to(ROOT)}:{line_number}: {name}")
    assert scanned > 80  # the walk found the tree
    assert not dangling, "\n".join(dangling)


def test_the_pattern_takes_bare_names_and_leaves_paths():
    line = "see ``DESIGN.md`` / EXPERIMENTS.md, perf/README.md and `.claude/skills/verify/SKILL.md`"
    assert BARE_MARKDOWN_NAME.findall(line) == ["DESIGN.md", "EXPERIMENTS.md"]


def test_no_roadmap_item_is_cited_by_number():
    scanned, stale = 0, []
    for directory in ("src", "tests", "examples"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            scanned += 1
            text = path.read_text(encoding="utf-8")
            for match in NUMBERED_ROADMAP_ITEM.finditer(text):
                line_number = text.count("\n", 0, match.start()) + 1
                stale.append(f"{path.relative_to(ROOT)}:{line_number}: {match.group(0)!r}")
    assert scanned > 100  # the walk found the tree
    assert not stale, "\n".join(stale)


def test_the_roadmap_pattern_takes_numbers_and_leaves_titles():
    numbered = "ROADMAP " + "item 5, and ROADMAP\n    items 3 and 4"
    assert len(NUMBERED_ROADMAP_ITEM.findall(numbered)) == 2
    assert not NUMBERED_ROADMAP_ITEM.search("ROADMAP 'Fault fuzzing on hypothesis'")


def command_flags(text, command=RUNNER):
    """``(offset, flag)`` for every ``--flag`` written after ``command``."""
    for match in command.finditer(text):
        line_start = text.rfind("\n", 0, match.start()) + 1
        in_code_span = len(re.findall(r"`+", text[line_start:match.start()])) % 2 == 1
        rest = text[match.end():]
        end = re.search(r"`|\n\s*\n" if in_code_span else r"\n", rest)
        command = rest[: end.start()] if end else rest
        for flag in FLAG.finditer(command):
            yield match.end() + flag.start(), flag.group(0)


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_every_flag_in_the_docs_is_an_option_of_its_command(name):
    command, parser_module, least = COMMANDS[name]
    parser = importlib.import_module(parser_module).build_parser()
    options = {option for action in parser._actions for option in action.option_strings}
    paths = [ROOT / ".github/workflows/ci.yml", ROOT / ".claude/skills/verify/SKILL.md"]
    found, stale = 0, []
    for path in [*paths, *documents()]:
        text = path.read_text(encoding="utf-8")
        for offset, flag in command_flags(text, command):
            found += 1
            if flag not in options:
                line_number = text.count("\n", 0, offset) + 1
                stale.append(f"{path.relative_to(ROOT)}:{line_number}: {flag}")
    assert found >= least  # the walk found the CI steps and the docs
    assert not stale, "\n".join(stale)


#: Names of deleted code, each with what replaced it or why it went.
REMOVED = {
    "benchmarks/": "the paper's claims are tests/test_paper_claims.py",
    "repro.bench.experiments": "the claims call find_max_throughput directly",
    "reproduce_figures": "the figure CLI went with the experiment definitions",
    "write_leases": "writes were acknowledged before their lease was active",
    "lease_cycles": "writes were acknowledged before their lease was active",
    "PersistenceModel": "no protocol read the durable time it returned",
    "StorageDevice": "no protocol read the durable time it returned",
    "open_loop": "every client is open-loop (§8.1)",
    "max_outstanding": "open-loop clients do not cap what is in flight",
    "key_distribution": "keys are drawn uniformly (§8.1)",
    "zipf_alpha": "keys are drawn uniformly (§8.1)",
    "lease_fraction": "the Raft leader lease went with the raft KV baseline",
    "detlint_baseline": "detlint has no baseline: a finding is fixed or suppressed inline",
    "repro.analysis.baseline": "detlint has no baseline: a finding is fixed or suppressed inline",
    "--write-baseline": "detlint has no baseline: a finding is fixed or suppressed inline",
    "--no-baseline": "detlint has no baseline: a finding is fixed or suppressed inline",
    "Severity": "every finding fails the gate; no rule shipped as a warning",
    "repro.shard": "the paper runs one consensus group per deployment; sharding is gone",
    "ShardedCluster": "the paper runs one consensus group per deployment; sharding is gone",
    "ShardRouter": "the paper runs one consensus group per deployment; sharding is gone",
    "KeyspacePartitioner": "the paper runs one consensus group per deployment; sharding is gone",
    "ShardMetrics": "the paper runs one consensus group per deployment; sharding is gone",
    "shard_bench": "the sharded throughput sweep went with the sharding subsystem",
    "ShardPointConfig": "the sharded throughput sweep went with the sharding subsystem",
    "run_shard_saturation": "the sharded throughput sweep went with the sharding subsystem",
    "find_max_shard_throughput": "find_max_throughput is the one ladder walk",
    "repro.verify.atomicity": "only sharded runs had transactions to check",
    "check_cross_shard_atomicity": "only sharded runs had transactions to check",
    "check_read_isolation": "only sharded runs had snapshot reads to check",
    "ShardTxnState": "only sharded runs had transactions to check",
    "sharded_kvstore": "the sharded example went with the sharding subsystem",
    "shard-smoke": "the ledger point went with the code it measured",
    "shard_saturation": "the ledger block went with the code it measured",
    "next_txn_keys": "the workload issues single-key operations only",
    "IdealBroadcast": "Canopus broadcasts through per-member Raft groups (§4.3) only",
    "make_broadcast": "CanopusNode constructs RaftBroadcast directly",
    "ReliableBroadcast": "RaftBroadcast is the one broadcast and documents its contract",
    "BroadcastEnvelope": "only the deleted ideal broadcast sent envelopes",
    "repro.broadcast.ideal": "Canopus broadcasts through per-member Raft groups (§4.3) only",
    "repro.broadcast.base": "RaftBroadcast is the one broadcast and documents its contract",
    "stddev": "nothing outside its own tests used it",
    "confidence_interval_95": "nothing outside its own tests used it",
    "stats.summarize": "nothing outside its own tests used it; MetricsCollector.summarize stays",
    "ZNode": "KVStore is a flat key-value map; no request reached the znode tree",
    "NoNodeError": "KVStore is a flat key-value map; no request reached the znode tree",
    "NodeExistsError": "KVStore is a flat key-value map; no request reached the znode tree",
    "BadVersionError": "KVStore is a flat key-value map; no request reached the znode tree",
    "KV_PREFIX": "KVStore is a flat key-value map; keys are not mapped under /kv",
    "_default_store": "every CanopusNode applies to its own KVStore, node.store",
    "_tx_queue": "a host puts each send on its one link in the turn it makes it",
    "_open_tx": "a host puts each send on its one link in the turn it makes it",
    "_first_hops": "a host has one link, Host._link, wired by add_link",
    "_topo_gen": "add_link settles every switch's drain margin",
    "raft_kv": "no paper claim or benchmark workload ran the raft KV baseline; the paper's Raft "
    "is the super-leaf broadcast",
    "RaftKVConfig": "the raft KV baseline went, with its configuration",
    "set_read_mode": "each protocol declares one read consistency level, read_consistency()",
    "read_modes": "each protocol declares one read consistency level, read_consistency()",
    "confirm_leadership": "only the raft KV baseline's read-index reads confirmed leadership",
    "LEASE_FRACTION": "only the raft KV baseline's lease reads had a leader lease",
}

#: Constructor and function options that went with the code only they
#: reached, each with its former owner (``module:callable``).
REMOVED_OPTIONS = [
    ("repro.workload.generator:WorkloadConfig", "open_loop"),
    ("repro.workload.generator:WorkloadConfig", "max_outstanding"),
    ("repro.workload.generator:WorkloadConfig", "key_distribution"),
    ("repro.workload.clients:ClientHostAgent", "open_loop"),
    ("repro.workload.clients:ClientProcess", "max_outstanding"),
    ("repro.workload.keyspace:Keyspace", "distribution"),
    ("repro.workload.keyspace:Keyspace", "zipf_alpha"),
    ("repro.zab.node:ZabConfig", "batch_duration_s"),
    ("repro.zab.node:ZabConfig", "max_batch_size"),
    ("repro.raft.node:RaftConfig", "lease_fraction"),
    ("repro.analysis.runner:run_analysis", "baseline_path"),
    ("repro.protocols.registry:register_protocol", "read_consistency"),
    ("repro.workload.generator:WorkloadConfig", "multi_key_ratio"),
    ("repro.workload.generator:WorkloadConfig", "multi_key_span"),
    ("repro.workload.generator:WorkloadConfig", "txn_read_ratio"),
    ("repro.workload.generator:WorkloadGenerator", "router"),
    ("repro.workload.clients:ClientHostAgent", "route_key"),
    ("repro.workload.clients:ClientHostAgent", "submit_txn"),
    ("repro.workload.clients:ClientHostAgent", "read_txn"),
    ("repro.workload.clients:ClientHostAgent", "multi_key_ratio"),
    ("repro.workload.clients:ClientHostAgent", "multi_key_span"),
    ("repro.workload.clients:ClientHostAgent", "txn_read_ratio"),
    ("repro.bench.runner:PerfPoint", "shard_count"),
    ("repro.bench.runner:PerfPoint", "multi_key_ratio"),
    ("repro.bench.runner:PerfPoint", "txn_read_ratio"),
    ("repro.metrics.collector:MetricsCollector.to_history", "key_filter"),
    ("repro.obs:attach_tracer", "cluster"),
    ("repro.obs:attach_tracer", "router"),
    ("repro.obs.telemetry:TelemetrySampler", "shard_metrics"),
    ("repro.sim.network:Packet", "hops"),
    ("repro.canopus.node:CanopusNode", "apply_write"),
    ("repro.canopus.node:CanopusNode", "apply_read"),
    ("repro.protocols.canopus:CanopusProtocol", "stores"),
    ("repro.bench.builders:SystemUnderTest", "stores"),
]

#: Command-line flags that went with the code only they reached, each with
#: the module whose ``build_parser()`` had it.
REMOVED_FLAGS = [
    ("repro.bench.runner", "--shard-saturation"),
    ("repro.bench.runner", "--min-scaling"),
]


def removed_name_pattern(name):
    tail = r"\b" if name[-1].isalnum() or name[-1] == "_" else ""
    return re.compile(rf"(?<![\w/.]){re.escape(name)}{tail}")


@pytest.mark.parametrize("name", sorted(REMOVED))
def test_no_document_names_removed_code(name):
    pattern = removed_name_pattern(name)
    this_file = pathlib.Path(__file__).resolve()
    paths = [ROOT / ".github/workflows/ci.yml", ROOT / ".claude/skills/verify/SKILL.md"]
    paths += [path for path in sorted((ROOT / "tests").rglob("*.py")) if path.resolve() != this_file]
    scanned, stale = 0, []
    for path in [*paths, *documents()]:
        scanned += 1
        text = path.read_text(encoding="utf-8")
        for match in pattern.finditer(text):
            line_number = text.count("\n", 0, match.start()) + 1
            stale.append(f"{path.relative_to(ROOT)}:{line_number}: {name} ({REMOVED[name]})")
    assert scanned > 120  # the walk found the tree
    assert not stale, "\n".join(stale)


@pytest.mark.parametrize("owner, option", REMOVED_OPTIONS)
def test_a_removed_option_is_rejected_rather_than_ignored(owner, option):
    module, name = owner.split(":")
    constructor = importlib.import_module(module)
    for attribute in name.split("."):
        constructor = getattr(constructor, attribute)
    with pytest.raises(TypeError, match=option):
        constructor(**{option: 1})


@pytest.mark.parametrize("module, flag", REMOVED_FLAGS)
def test_a_removed_flag_is_refused_as_unknown(module, flag, capsys):
    parser = importlib.import_module(module).build_parser()
    with pytest.raises(SystemExit) as exit_info:
        parser.parse_args([flag])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_the_flag_pattern_follows_a_code_span_across_lines():
    text = (
        "diff with `python -m repro.bench.runner --perf-point sim-hotpath\n"
        "--profile-diff old.json new.json`; the `--other` flag is not the runner's.\n"
        "run: python -m repro.bench.runner --perf-point x --fail-below 0.7\n"
        "run: python -m repro.obs.report --top 5\n"
        "from repro.bench.runner import main\n"
        "--set-baseline\n"
    )
    flags = [flag for _, flag in command_flags(text)]
    assert flags == ["--perf-point", "--profile-diff", "--perf-point", "--fail-below"]


def test_the_analysis_pattern_takes_the_command_and_leaves_submodules():
    text = (
        "run: python -m repro.analysis src tests --json out.json\n"
        "`repro.analysis.core.Rule` --not-a-command\n"
        "from repro.analysis.runner import main --nor-this\n"
    )
    assert [flag for _, flag in command_flags(text, ANALYSIS)] == ["--json"]


def class_references(text):
    """``(offset, class, member or None)`` for every code span naming a class."""
    for span in CODE_SPAN.finditer(text):
        match = CLASS_REFERENCE.fullmatch(span.group(1))
        if match and not hasattr(builtins, match.group(1)):
            yield span.start(), match.group(1), match.group(2)


def defined_classes():
    """``{name: (members, base names)}`` for every class in ``src/repro`` and ``tests``.

    Classes that share a name are merged: a reference resolves if any of
    them defines the member.
    """
    classes = {}
    for directory in ("src/repro", "tests"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if not isinstance(node, ast.ClassDef):
                    continue
                members, bases = classes.setdefault(node.name, (set(), set()))
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        members.add(item.name)
                    elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                        targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                        members.update(t.id for t in targets if isinstance(t, ast.Name))
                for item in ast.walk(node):
                    if isinstance(item, ast.Assign):
                        targets = item.targets
                    elif isinstance(item, (ast.AnnAssign, ast.AugAssign)):
                        targets = [item.target]
                    else:
                        continue
                    members.update(
                        t.attr
                        for t in targets
                        if isinstance(t, ast.Attribute)
                        and isinstance(t.value, ast.Name)
                        and t.value.id == "self"
                    )
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        bases.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        bases.add(base.attr)
    return classes


def has_member(classes, name, member, seen=frozenset()):
    if name not in classes or name in seen:
        return False
    members, bases = classes[name]
    return member in members or any(
        has_member(classes, base, member, seen | {name}) for base in bases
    )


def test_every_class_named_in_the_docs_exists():
    classes = defined_classes()
    found, stale = 0, []
    for path in (ROOT / "ARCHITECTURE.md", ROOT / ".claude/skills/verify/SKILL.md"):
        text = path.read_text(encoding="utf-8")
        for offset, name, member in class_references(text):
            found += 1
            if name in classes and (member is None or has_member(classes, name, member)):
                continue
            line_number = text.count("\n", 0, offset) + 1
            reference = name if member is None else f"{name}.{member}"
            stale.append(f"{path.relative_to(ROOT)}:{line_number}: {reference}")
    assert found > 50  # the walk found the references
    assert not stale, "\n".join(stale)


def test_the_class_pattern_takes_names_and_members_and_leaves_the_rest():
    text = (
        "`EventLoop`, `Simulator.fork_rng`, `Runtime.now()`, `None`, `ValueError`, "
        "`loop.run()`, `Transport.broadcast(dsts, m)`, `NAME.md`, `EventLoop.a.b`"
    )
    references = [(name, member) for _, name, member in class_references(text)]
    assert references == [("EventLoop", None), ("Simulator", "fork_rng"), ("Runtime", "now")]


def test_a_member_resolves_through_a_base_class():
    classes = defined_classes()
    # _RxQueue subclasses DeliveryQueue, which assigns ``self.priority``.
    assert has_member(classes, "_RxQueue", "priority")
    assert not has_member(classes, "EventLoop", "no_such_member")


def adding_a_protocol_block():
    """The Python block of ARCHITECTURE's "Adding a protocol" section."""
    text = (ROOT / "ARCHITECTURE.md").read_text(encoding="utf-8")
    section = text[text.index("## Adding a protocol"):]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


class MyConfig:
    pass


class MyNode:
    """The least node the template's adapter can drive."""

    def __init__(self, runtime, members, config, on_reply=None):
        from repro.kvstore.store import KVStore

        self.runtime = runtime
        self.members = members
        self.on_reply = on_reply
        self.store = KVStore()
        self.running = self.crashed = False

    def start(self):
        self.running = True

    def stop(self):
        self.running = False

    def committed_order(self):
        return []


def test_the_adding_a_protocol_template_builds_on_both_substrates():
    from repro.protocols import ConsensusProtocol, build_protocol, unregister_protocol
    from repro.runtime.asyncio_runtime import AsyncioTopology
    from repro.sim.engine import Simulator
    from repro.sim.topology import build_single_datacenter

    sim_topology = build_single_datacenter(Simulator(seed=1), nodes_per_rack=2, racks=2)
    asyncio_topology = AsyncioTopology({"rack-a": ["a1", "a2"], "rack-b": ["b1"]})
    try:
        exec(adding_a_protocol_block(), {"MyNode": MyNode, "MyConfig": MyConfig})
        for topology in (sim_topology, asyncio_topology):
            protocol = build_protocol("myproto", topology)
            assert isinstance(protocol, ConsensusProtocol)
            assert protocol.read_consistency() == "linearizable"
            assert protocol.node_ids() == topology.server_hosts
            protocol.start()
            assert all(node.running for node in protocol.nodes.values())
            victim = protocol.node_ids()[-1]
            protocol.crash(victim)
            assert protocol.node(victim).crashed and not protocol.node(victim).running
            assert not protocol.is_healthy()
            assert protocol.committed_logs() == {node_id: [] for node_id in topology.server_hosts}
            assert list(protocol.stores) == topology.server_hosts
        assert sim_topology.network.hosts[sim_topology.server_hosts[-1]].failed
    finally:
        unregister_protocol("myproto")
        asyncio_topology.cluster.close()


def installed_by_the_tests_job():
    """Distribution names on the CI tests job's ``pip install`` line."""
    text = (ROOT / ".github/workflows/ci.yml").read_text(encoding="utf-8")
    job = text[text.index("\n  tests:"):]
    line = re.search(r"pip install ([^\n]+)", job).group(1)
    return {re.split(r"[<>=!~\[]", word)[0].lower() for word in line.split() if not word.startswith("-")}


def third_party_test_imports():
    """Top-level third-party modules the tier-1 tests import, with a file each."""
    local = {"repro", "tests", "perf"}
    local |= {path.stem for directory in ("tests", "perf") for path in (ROOT / directory).glob("*.py")}
    imported = {}
    for path in [*sorted((ROOT / "tests").glob("*.py")), ROOT / "perf/test_perf_bench.py"]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                if top not in sys.stdlib_module_names and top not in local:
                    imported.setdefault(top, path.relative_to(ROOT))
    return imported


def test_the_tests_job_installs_every_third_party_module_the_tests_import():
    installed = installed_by_the_tests_job()
    imported = third_party_test_imports()
    assert "pytest" in imported  # the walk found the imports
    missing = [f"{name} (imported by {path})" for name, path in sorted(imported.items()) if name not in installed]
    assert not missing, "not installed by the CI tests job: " + ", ".join(missing)
