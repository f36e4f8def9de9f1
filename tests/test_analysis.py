"""detlint (repro.analysis) test suite.

Each rule gets one violating and one clean fixture snippet, written into
a tmp tree that mimics the ``src/repro/...`` layout — rules scope
themselves by relpath substring/suffix, so fixture modules trigger
exactly like real ones.  On top of the per-rule pairs: the suppression
comment, the CLI exit codes and JSON report, and a self-run asserting
the real tree is clean.  There is no baseline, so every finding counts.
"""

from __future__ import annotations

import json
import os
import pathlib

import pytest

from repro.analysis.runner import main, run_analysis
from repro.analysis.rules import ALL_RULES
from repro.analysis.rules.dispatch import DispatchCompleteRule
from repro.analysis.rules.imports import NoUnusedImportRule
from repro.analysis.rules.obsguard import ObsHookGuardRule
from repro.analysis.rules.ordering import NoUnorderedIterationRule
from repro.analysis.rules.randomness import NoUnseededRandomRule
from repro.analysis.rules.slots import SlotsRequiredRule
from repro.analysis.rules.wallclock import NoWallclockRule

REPO_ROOT = str(pathlib.Path(__file__).resolve().parent.parent)


def lint(tmp_path, files, rules=None):
    """Write ``files`` (relpath -> source) under ``tmp_path`` and run the
    analysis over its ``src`` tree."""
    for relpath, source in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return run_analysis(
        [str(tmp_path / "src")],
        repo_root=str(tmp_path),
        rules=rules,
    )


def rules_hit(result):
    return sorted({f.rule for f in result.findings})


# ---------------------------------------------------------------------------
# no-wallclock
# ---------------------------------------------------------------------------

WALLCLOCK_BAD = """\
import time

def stamp(runtime):
    return time.perf_counter()
"""

WALLCLOCK_CLEAN = """\
def stamp(runtime):
    return runtime.now()
"""


def test_no_wallclock_flags_host_clock(tmp_path):
    result = lint(tmp_path, {"src/repro/sim/clocks.py": WALLCLOCK_BAD}, rules=[NoWallclockRule])
    assert rules_hit(result) == ["no-wallclock"]
    assert "time.perf_counter" in result.findings[0].message


def test_no_wallclock_clean_and_allowlist(tmp_path):
    clean = lint(tmp_path, {"src/repro/sim/clocks.py": WALLCLOCK_CLEAN}, rules=[NoWallclockRule])
    assert clean.findings == []
    # The same host-clock read is legitimate under repro/bench/.
    allowed = lint(
        tmp_path, {"src/repro/bench/timing.py": WALLCLOCK_BAD}, rules=[NoWallclockRule]
    )
    assert allowed.findings == []


def test_no_wallclock_catches_from_import_alias(tmp_path):
    source = "from time import perf_counter as pc\n\ndef stamp():\n    return pc()\n"
    result = lint(tmp_path, {"src/repro/sim/clocks.py": source}, rules=[NoWallclockRule])
    assert rules_hit(result) == ["no-wallclock"]


# ---------------------------------------------------------------------------
# no-unseeded-random
# ---------------------------------------------------------------------------

RANDOM_BAD = """\
import random

def pick(items):
    return items[random.randrange(len(items))]

def derive(key):
    return hash(key) % 1024
"""

RANDOM_CLEAN = """\
import random
import zlib

def pick(rng, items):
    return items[rng.randrange(len(items))]

def make_rng(seed):
    return random.Random(seed)

def derive(key):
    return zlib.crc32(key.encode()) % 1024
"""


def test_no_unseeded_random_flags_global_rng_and_hash(tmp_path):
    result = lint(
        tmp_path, {"src/repro/workload/gen.py": RANDOM_BAD}, rules=[NoUnseededRandomRule]
    )
    assert rules_hit(result) == ["no-unseeded-random"]
    messages = " ".join(f.message for f in result.findings)
    assert "random.randrange" in messages
    assert "hash()" in messages


def test_no_unseeded_random_clean_seeded_instances(tmp_path):
    result = lint(
        tmp_path, {"src/repro/workload/gen.py": RANDOM_CLEAN}, rules=[NoUnseededRandomRule]
    )
    assert result.findings == []


def test_no_unseeded_random_flags_unseeded_instance(tmp_path):
    source = "import random\n\nRNG = random.Random()\n"
    result = lint(
        tmp_path, {"src/repro/sim/entropy.py": source}, rules=[NoUnseededRandomRule]
    )
    assert rules_hit(result) == ["no-unseeded-random"]


# ---------------------------------------------------------------------------
# no-unordered-iteration
# ---------------------------------------------------------------------------

ORDERING_BAD = """\
def fanout(send, ids):
    peers = set(ids)
    for peer in peers:
        send(peer)
"""

ORDERING_CLEAN = """\
def fanout(send, ids):
    peers = set(ids)
    for peer in sorted(peers):
        send(peer)
    return len(peers)
"""


def test_no_unordered_iteration_flags_set_loop(tmp_path):
    result = lint(
        tmp_path, {"src/repro/sim/fanout.py": ORDERING_BAD}, rules=[NoUnorderedIterationRule]
    )
    assert rules_hit(result) == ["no-unordered-iteration"]
    assert "sorted" in result.findings[0].message


def test_no_unordered_iteration_clean_sorted_loop(tmp_path):
    result = lint(
        tmp_path, {"src/repro/sim/fanout.py": ORDERING_CLEAN}, rules=[NoUnorderedIterationRule]
    )
    assert result.findings == []


def test_no_unordered_iteration_flags_id_keying(tmp_path):
    source = "def track(table, packet, now):\n    table[id(packet)] = now\n"
    result = lint(
        tmp_path, {"src/repro/sim/tracker.py": source}, rules=[NoUnorderedIterationRule]
    )
    assert rules_hit(result) == ["no-unordered-iteration"]
    assert "id()" in result.findings[0].message


#: ``asyncio.all_tasks`` returns a set: cancelling in its order is
#: harmless, but the rule must see it so the suppression says why.
ALL_TASKS_LOOP = """\
import asyncio
from asyncio import all_tasks

def close(loop):
    pending = asyncio.all_tasks(loop)
    for task in pending:
        task.cancel()
    return [task for task in all_tasks(loop)]
"""


def test_no_unordered_iteration_knows_set_returning_calls(tmp_path):
    result = lint(
        tmp_path, {"src/repro/runtime/loops.py": ALL_TASKS_LOOP}, rules=[NoUnorderedIterationRule]
    )
    assert [(f.rule, f.line) for f in result.findings] == [
        ("no-unordered-iteration", 6),
        ("no-unordered-iteration", 8),
    ]
    suppressed = ALL_TASKS_LOOP.replace(
        "for task in pending:", "for task in pending:  # detlint: disable=no-unordered-iteration"
    )
    result = lint(
        tmp_path, {"src/repro/runtime/loops.py": suppressed}, rules=[NoUnorderedIterationRule]
    )
    assert [f.line for f in result.findings] == [8]
    assert result.suppressed == 1


# ---------------------------------------------------------------------------
# slots-required (cross-checks the wire-size golden coverage literal)
# ---------------------------------------------------------------------------

GOLDEN_FIXTURE = """\
WIRE_COVERED = {
    "src/repro/fooproto/messages.py": ("Ping",),
}
"""

SLOTS_BAD = """\
class Ping:
    def __init__(self, sender):
        self.sender = sender

    def wire_size(self):
        return 16
"""

SLOTS_CLEAN = """\
from dataclasses import dataclass


@dataclass(slots=True)
class Ping:
    sender: str

    def wire_size(self):
        return 16
"""


def test_slots_required_flags_unslotted_message(tmp_path):
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": SLOTS_BAD,
            "tests/wire_golden.py": GOLDEN_FIXTURE,
        },
        rules=[SlotsRequiredRule],
    )
    assert rules_hit(result) == ["slots-required"]
    assert "__slots__" in result.findings[0].message


def test_slots_required_clean_slotted_and_covered(tmp_path):
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": SLOTS_CLEAN,
            "tests/wire_golden.py": GOLDEN_FIXTURE,
        },
        rules=[SlotsRequiredRule],
    )
    assert result.findings == []


def test_slots_required_flags_missing_golden_coverage(tmp_path):
    # Slotted, but the class is absent from WIRE_COVERED.
    empty_golden = 'WIRE_COVERED = {\n    "src/repro/fooproto/messages.py": (),\n}\n'
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": SLOTS_CLEAN,
            "tests/wire_golden.py": empty_golden,
        },
        rules=[SlotsRequiredRule],
    )
    assert rules_hit(result) == ["slots-required"]
    assert "golden row" in result.findings[0].message


def test_slots_required_flags_stale_golden_entry(tmp_path):
    stale_golden = (
        'WIRE_COVERED = {\n    "src/repro/fooproto/messages.py": ("Ping", "Gone"),\n}\n'
    )
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": SLOTS_CLEAN,
            "tests/wire_golden.py": stale_golden,
        },
        rules=[SlotsRequiredRule],
    )
    assert rules_hit(result) == ["slots-required"]
    assert any("stale golden entry" in f.message and "`Gone`" in f.message for f in result.findings)


# ---------------------------------------------------------------------------
# dispatch-complete (cross-module: messages.py vs node.py)
# ---------------------------------------------------------------------------

DISPATCH_MESSAGES = """\
from dataclasses import dataclass


@dataclass(slots=True)
class Ping:
    sender: str

    def wire_size(self):
        return 16


@dataclass(slots=True)
class Pong:
    sender: str

    def wire_size(self):
        return 16
"""

DISPATCH_NODE_COMPLETE = """\
from repro.fooproto.messages import Ping, Pong


class Node:
    def __init__(self):
        self._dispatch = {Ping: self._on_ping, Pong: self._on_pong}

    def _on_ping(self, msg):
        pass

    def _on_pong(self, msg):
        pass
"""

DISPATCH_NODE_MISSING = """\
from repro.fooproto.messages import Ping


class Node:
    def __init__(self):
        self._dispatch = {Ping: self._on_ping}

    def _on_ping(self, msg):
        pass
"""


def test_dispatch_complete_flags_missing_entry(tmp_path):
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": DISPATCH_MESSAGES,
            "src/repro/fooproto/node.py": DISPATCH_NODE_MISSING,
        },
        rules=[DispatchCompleteRule],
    )
    assert rules_hit(result) == ["dispatch-complete"]
    assert "`Pong`" in result.findings[0].message


def test_dispatch_complete_clean_full_table(tmp_path):
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": DISPATCH_MESSAGES,
            "src/repro/fooproto/node.py": DISPATCH_NODE_COMPLETE,
        },
        rules=[DispatchCompleteRule],
    )
    assert result.findings == []


def test_dispatch_complete_flags_absent_table(tmp_path):
    node_without_table = "class Node:\n    def __init__(self):\n        self._handlers = []\n"
    result = lint(
        tmp_path,
        {
            "src/repro/fooproto/messages.py": DISPATCH_MESSAGES,
            "src/repro/fooproto/node.py": node_without_table,
        },
        rules=[DispatchCompleteRule],
    )
    assert rules_hit(result) == ["dispatch-complete"]
    assert any("declares no `_dispatch`" in f.message for f in result.findings)


# ---------------------------------------------------------------------------
# obs-hook-guard
# ---------------------------------------------------------------------------

OBS_BAD = """\
class Node:
    def __init__(self):
        self._obs = None

    def deliver(self, msg):
        if self._obs:
            self._obs.phase_begin("deliver")

    def commit(self, entry):
        self._obs.commit(entry)
"""

OBS_CLEAN = """\
class Node:
    def __init__(self):
        self._obs = None

    def deliver(self, msg):
        if self._obs is not None:
            self._obs.phase_begin("deliver")

    def commit(self, entry):
        obs = self._obs
        if obs is not None:
            obs.commit(entry)
"""


def test_obs_hook_guard_flags_truthiness_and_unguarded_use(tmp_path):
    result = lint(tmp_path, {"src/repro/fooproto/node.py": OBS_BAD}, rules=[ObsHookGuardRule])
    assert rules_hit(result) == ["obs-hook-guard"]
    messages = " ".join(f.message for f in result.findings)
    assert "is (not) None" in messages  # the truthiness test
    assert "outside an" in messages  # the unguarded hook call


def test_obs_hook_guard_clean_guard_and_alias(tmp_path):
    result = lint(tmp_path, {"src/repro/fooproto/node.py": OBS_CLEAN}, rules=[ObsHookGuardRule])
    assert result.findings == []


# ---------------------------------------------------------------------------
# no-unused-import
# ---------------------------------------------------------------------------

UNUSED_IMPORT_BAD = """\
import os
import json as js
from typing import Dict, List
from collections import deque

def sizes(items: List[int]) -> "deque[int]":
    return deque(len(str(item)) for item in items)
"""

UNUSED_IMPORT_CLEAN = """\
from __future__ import annotations

import os.path
from typing import TYPE_CHECKING, Optional

import repro.protocols.canopus  # noqa: F401  (registration side effect)
from repro.sim.engine import Simulator  # noqa

if TYPE_CHECKING:
    from repro.runtime.base import Runtime

__all__ = ["Optional", "basename"]

def basename(runtime: "Optional[Runtime]", path):
    return os.path.basename(path)
"""


def test_no_unused_import_flags_each_unused_binding(tmp_path):
    result = lint(tmp_path, {"src/repro/sim/sizes.py": UNUSED_IMPORT_BAD}, rules=[NoUnusedImportRule])
    assert rules_hit(result) == ["no-unused-import"]
    assert sorted(f.message.split("`")[1] for f in result.findings) == ["Dict", "js", "os"]


def test_no_unused_import_clean_noqa_all_annotations_and_package_facades(tmp_path):
    result = lint(
        tmp_path,
        {
            "src/repro/sim/paths.py": UNUSED_IMPORT_CLEAN,
            # A package façade re-exports: nothing in it "uses" the name.
            "src/repro/sim/__init__.py": "from repro.sim.paths import basename\n",
        },
        rules=[NoUnusedImportRule],
    )
    assert result.findings == []


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------


def test_inline_suppression_silences_named_rule(tmp_path):
    suppressed = WALLCLOCK_BAD.replace(
        "return time.perf_counter()",
        "return time.perf_counter()  # detlint: disable=no-wallclock",
    )
    result = lint(tmp_path, {"src/repro/sim/clocks.py": suppressed}, rules=[NoWallclockRule])
    assert result.findings == []
    assert result.suppressed == 1


def test_inline_suppression_is_rule_specific(tmp_path):
    wrong_rule = WALLCLOCK_BAD.replace(
        "return time.perf_counter()",
        "return time.perf_counter()  # detlint: disable=no-unseeded-random",
    )
    result = lint(tmp_path, {"src/repro/sim/clocks.py": wrong_rule}, rules=[NoWallclockRule])
    assert rules_hit(result) == ["no-wallclock"]
    assert result.suppressed == 0


def test_a_suppression_that_suppresses_nothing_is_a_finding(tmp_path, capsys):
    """A rule that ran and found nothing on the line, or a name that is no
    rule at all: either way the comment is stale, and the run exits 1."""
    stale = WALLCLOCK_CLEAN.replace(
        "return runtime.now()",
        "return runtime.now()  # detlint: disable=no-wallclock,no-such-rule",
    )
    result = lint(tmp_path, {"src/repro/sim/clocks.py": stale}, rules=[NoWallclockRule])
    assert [(f.rule, f.line) for f in result.findings] == [
        ("unused-suppression", 2),
        ("unused-suppression", 2),
    ]
    assert ["no-such-rule" in f.message for f in result.findings] == [True, False]
    assert result.exit_code == 1
    assert main([str(tmp_path / "src"), "--repo-root", str(tmp_path)]) == 1
    capsys.readouterr()


def test_a_suppression_is_judged_only_by_rules_that_ran(tmp_path):
    """A rule left out of the run may have a finding on that line."""
    other_rule = WALLCLOCK_CLEAN.replace(
        "return runtime.now()",
        "return runtime.now()  # detlint: disable=no-unseeded-random",
    )
    result = lint(tmp_path, {"src/repro/sim/clocks.py": other_rule}, rules=[NoWallclockRule])
    assert result.findings == []


def test_suppression_text_inside_a_string_is_not_a_suppression(tmp_path):
    """Only comments suppress: a lint fixture held in a string neither
    silences a finding nor counts as a stale comment."""
    source = WALLCLOCK_BAD + 'FIXTURE = "x = 1  # detlint: disable=no-wallclock"\n'
    result = lint(tmp_path, {"src/repro/sim/clocks.py": source}, rules=[NoWallclockRule])
    assert rules_hit(result) == ["no-wallclock"]
    assert result.suppressed == 0


# ---------------------------------------------------------------------------
# CLI exit-code contract
# ---------------------------------------------------------------------------


def test_cli_exit_codes(tmp_path, capsys):
    src = tmp_path / "src" / "repro" / "sim"
    src.mkdir(parents=True)
    (src / "clocks.py").write_text(WALLCLOCK_BAD)

    argv_base = [str(tmp_path / "src"), "--repo-root", str(tmp_path)]
    assert main(argv_base) == 1  # any finding

    (src / "clocks.py").write_text(WALLCLOCK_CLEAN)
    assert main(argv_base) == 0  # clean tree

    (src / "broken.py").write_text("def broken(:\n")
    assert main(argv_base) == 2  # analyser failure: unparseable target
    with pytest.raises(SystemExit) as bad_flag:
        main([*argv_base, "--no-such-flag"])
    assert bad_flag.value.code == 2  # analyser failure: unknown flag
    capsys.readouterr()


def test_cli_json_report(tmp_path, capsys):
    src = tmp_path / "src" / "repro" / "sim"
    src.mkdir(parents=True)
    (src / "clocks.py").write_text(WALLCLOCK_BAD)
    report_path = tmp_path / "findings.json"

    code = main(
        [
            str(tmp_path / "src"),
            "--repo-root", str(tmp_path),
            "--json", str(report_path),
        ]
    )
    capsys.readouterr()
    assert code == 1
    payload = json.loads(report_path.read_text())
    assert payload["version"] == 2
    assert payload["summary"]["findings"] == 1
    assert payload["summary"]["exit_code"] == 1
    assert payload["findings"][0]["rule"] == "no-wallclock"
    assert payload["findings"][0]["line"] == 4


# ---------------------------------------------------------------------------
# self-run: the real tree is clean
# ---------------------------------------------------------------------------


def test_the_linted_tree_is_clean():
    """Over everything CI lints: every rule but no-unused-import scopes
    itself to ``src/repro``; that one stands in for ruff, which is not
    installed everywhere this runs."""
    result = run_analysis(
        [os.path.join(REPO_ROOT, part) for part in ("src", "tests", "perf", "examples")],
        repo_root=REPO_ROOT,
    )
    assert result.modules_scanned > 100
    offenders = [f.render() for f in result.findings]
    assert offenders == [], "\n".join(offenders)
    assert result.exit_code == 0


def test_all_rules_have_distinct_names_and_descriptions():
    names = [cls.name for cls in ALL_RULES]
    assert len(names) == len(set(names))
    assert all(cls.description for cls in ALL_RULES)
    assert len(ALL_RULES) >= 7
