"""The agreement verdict every test's deployments get (``tests/conftest.py``).

The verdict itself is checked on made-up logs.  The tests that are excused
from it are listed here, in the manner of ``test_doc_links.py``: opting out
(``agreement_opt_out``) and a known disagreement (``xfail(strict=True,
raises=Disagreement)``) are both named in the source, and both lists may
only shrink — a new entry needs a ROADMAP item, not an edit here.
"""

from __future__ import annotations

import ast
import pathlib
import sys
from types import SimpleNamespace

import pytest

import conftest
from tests.helpers import build_canopus_on_sim, write

TESTS = pathlib.Path(__file__).resolve().parent

#: Tests that carry ``agreement_opt_out``, with their reasons.
OPT_OUTS: list = []
#: Tests that go in as ``xfail(strict=True, raises=Disagreement)``.
KNOWN_DISAGREEMENTS = [
    "test_paper_claims.py::test_fig6_canopus_keeps_up_with_epaxos_across_3_datacenters",
]


def excused_tests():
    """``(opt-outs, known disagreements)`` as written in ``tests/*.py``."""
    opt_outs, known = [], []
    for path in sorted(TESTS.glob("*.py")):
        if path.name in ("conftest.py", pathlib.Path(__file__).name):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            for decorator in getattr(node, "decorator_list", ()):
                source = ast.unparse(decorator)
                where = f"{path.name}::{node.name}"
                if "agreement_opt_out" in source:
                    opt_outs.append((where, ast.literal_eval(decorator.args[0])))
                elif "xfail" in source and "Disagreement" in source:
                    known.append(where)
    return opt_outs, known


def test_the_excused_tests_are_exactly_the_listed_ones():
    opt_outs, known = excused_tests()
    assert opt_outs == OPT_OUTS
    assert known == KNOWN_DISAGREEMENTS


def fake(name, logs, crashed=(), cycles=None):
    """A deployment with the given per-node logs: enough for the verdict."""
    nodes = {
        node_id: SimpleNamespace(crashed=node_id in crashed, commit_log=(cycles or {}).get(node_id, []))
        for node_id in logs
    }
    return SimpleNamespace(name=name, nodes=nodes, committed_logs=lambda: logs)


def cycle(cycle_id, *request_ids):
    return SimpleNamespace(cycle_id=cycle_id, requests=[SimpleNamespace(request_id=r) for r in request_ids])


class TestVerdict:
    def test_prefixes_agree(self):
        assert conftest.agreement_verdict(fake("epaxos", {"a": [1, 2, 3], "b": [1, 2]}))[0]

    def test_a_different_entry_disagrees(self):
        ok, message = conftest.agreement_verdict(fake("epaxos", {"a": [1, 2, 3], "b": [1, 3]}))
        assert not ok and "position 1" in message

    def test_a_crashed_replica_is_left_out_of_the_prefix_check(self):
        assert conftest.agreement_verdict(fake("zookeeper", {"a": [1, 2], "b": [2]}, crashed={"b"}))[0]

    def test_a_cycle_committed_empty_at_one_node_disagrees_for_canopus(self):
        logs = {"a": [1], "b": []}
        cycles = {"a": [cycle(1, 1)], "b": [cycle(1)]}
        assert conftest.agreement_verdict(fake("epaxos", logs, cycles=cycles))[0]
        for name in ("canopus", "zkcanopus"):
            ok, message = conftest.agreement_verdict(fake(name, logs, cycles=cycles))
            assert not ok and message.startswith("cycle 1:")


def test_every_protocol_a_test_builds_is_recorded():
    _, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=1)
    assert conftest._built[-1] is protocol


def test_a_real_run_gets_a_passing_verdict():
    sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=2)
    for index, node in enumerate(protocol.nodes.values()):
        node.submit(write(f"k{index}", "v"))
    sim.run_until(0.2)
    assert {len(log) for log in protocol.committed_logs().values()} == {6}
    assert conftest.agreement_verdict(protocol) == (True, "cycle agreement holds")


@pytest.mark.parametrize(
    "reason, accepted",
    [
        ("ROADMAP: " + conftest.roadmap_titles()[0], True),
        ("ROADMAP: " + conftest.roadmap_titles()[0].split(":")[0], True),
        ("ROADMAP: no such item", False),
        ("mutation: fake", True),
        ("mutation: no_such_function", False),
        ("flaky", False),
    ],
    ids=["roadmap-title", "part-of-a-title", "no-such-title", "mutation", "no-such-mutation", "neither"],
)
def test_an_opt_out_names_a_roadmap_item_or_a_mutation(reason, accepted):
    item = SimpleNamespace(nodeid="t", module=sys.modules[__name__])
    assert (conftest.opt_out_problem(item, reason) is None) == accepted
