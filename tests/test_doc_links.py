"""Doc references in the code must not go stale.

A reference to a top-level Markdown file must name one that exists.  Scope:
``src/``, ``examples/``, ``benchmarks/`` and the top-level ``*.md``
documents.  ``perf/`` keeps its own README and is left out.  A reference is
a bare ``NAME.md``; ``perf/README.md`` or ``skills/verify/SKILL.md`` name a
path, not a top-level file.

A ROADMAP item is cited by its title, never by its number: items are
renumbered whenever the ROADMAP is re-anchored.  Scope: ``src/``,
``tests/``, ``examples/`` and ``benchmarks/``.

A ``--flag`` written after ``repro.bench.runner`` must be an option of the
runner's parser.  Scope: the documents above plus the CI workflow and the
verify skill.  The command runs to the end of its line, or, when it opens
inside a code span, to the span's closing backtick on a later line.

The code block of ARCHITECTURE's "Adding a protocol" section must run: it
is executed with a stub ``MyNode`` and ``MyConfig`` and built on a
simulated and an asyncio topology.

A code span in ARCHITECTURE.md or the verify skill that is exactly a
capitalized name, optionally followed by ``.member`` (and ``()``), must name
a class defined under ``src/repro`` or ``tests``; the member must be a
method, a class attribute or a ``self.`` assignment of that class or one of
its bases.  Builtin names (``None``, ``ValueError``) are left alone.
"""

import ast
import builtins
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
#: Plans and history name files that are gone or still to be written.
NARRATIVE = {"ISSUE.md", "REVIEW.md", "ROADMAP.md", "CHANGES.md"}
BARE_MARKDOWN_NAME = re.compile(r"(?<![\w/.-])([A-Za-z_][\w-]*\.md)\b")
#: "ROADMAP", then "item" or "items" and a digit, also across a line break.
NUMBERED_ROADMAP_ITEM = re.compile(r"ROADMAP\s+items?\s+\d")
RUNNER = re.compile(r"repro\.bench\.runner\b")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
CODE_SPAN = re.compile(r"`([^`\n]+)`")
CLASS_REFERENCE = re.compile(r"([A-Z][a-z]\w*)(?:\.(\w+))?(?:\(\))?")


def documents():
    for directory in ("src", "examples", "benchmarks"):
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
    assert scanned > 100  # the walk found the tree
    assert not dangling, "\n".join(dangling)


def test_the_pattern_takes_bare_names_and_leaves_paths():
    line = "see ``DESIGN.md`` / EXPERIMENTS.md, perf/README.md and `.claude/skills/verify/SKILL.md`"
    assert BARE_MARKDOWN_NAME.findall(line) == ["DESIGN.md", "EXPERIMENTS.md"]


def test_no_roadmap_item_is_cited_by_number():
    scanned, stale = 0, []
    for directory in ("src", "tests", "examples", "benchmarks"):
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


def runner_flags(text):
    """``(offset, flag)`` for every ``--flag`` written after ``repro.bench.runner``."""
    for match in RUNNER.finditer(text):
        line_start = text.rfind("\n", 0, match.start()) + 1
        in_code_span = len(re.findall(r"`+", text[line_start:match.start()])) % 2 == 1
        rest = text[match.end():]
        end = re.search(r"`|\n\s*\n" if in_code_span else r"\n", rest)
        command = rest[: end.start()] if end else rest
        for flag in FLAG.finditer(command):
            yield match.end() + flag.start(), flag.group(0)


def test_every_runner_flag_in_the_docs_is_an_option_of_the_runner():
    from repro.bench.runner import build_parser

    options = {option for action in build_parser()._actions for option in action.option_strings}
    paths = [ROOT / ".github/workflows/ci.yml", ROOT / ".claude/skills/verify/SKILL.md"]
    found, stale = 0, []
    for path in [*paths, *documents()]:
        text = path.read_text(encoding="utf-8")
        for offset, flag in runner_flags(text):
            found += 1
            if flag not in options:
                line_number = text.count("\n", 0, offset) + 1
                stale.append(f"{path.relative_to(ROOT)}:{line_number}: {flag}")
    assert found > 10  # the walk found the CI steps and the docs
    assert not stale, "\n".join(stale)


def test_the_flag_pattern_follows_a_code_span_across_lines():
    text = (
        "diff with `python -m repro.bench.runner --perf-point sim-hotpath\n"
        "--profile-diff old.json new.json`; the `--other` flag is not the runner's.\n"
        "run: python -m repro.bench.runner --perf-point x --fail-below 0.7\n"
        "run: python -m repro.obs.report --top 5\n"
        "from repro.bench.runner import main\n"
        "--set-baseline\n"
    )
    flags = [flag for _, flag in runner_flags(text)]
    assert flags == ["--perf-point", "--profile-diff", "--perf-point", "--fail-below"]


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
        self.runtime = runtime
        self.members = members
        self.on_reply = on_reply
        self.running = self.crashed = False

    def start(self):
        self.running = True

    def stop(self):
        self.running = False

    def crash(self):
        self.crashed = True
        self.stop()

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
            assert protocol.node_ids() == topology.server_hosts
            protocol.start()
            assert all(node.running for node in protocol.nodes.values())
            victim = protocol.node_ids()[-1]
            protocol.crash(victim)
            assert protocol.node(victim).crashed and not protocol.is_healthy()
            assert protocol.committed_logs() == {node_id: [] for node_id in topology.server_hosts}
        assert sim_topology.network.hosts[sim_topology.server_hosts[-1]].failed
    finally:
        unregister_protocol("myproto")
        asyncio_topology.cluster.close()
