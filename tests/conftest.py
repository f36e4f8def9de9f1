"""Every protocol a test builds ends in an agreement verdict.

``ConsensusProtocol.__init__`` is wrapped here, so each deployment a test
constructs — through the registry, a helper or by hand, in a fixture or in
the test body — is recorded; ``src/`` has no hook for it.  When the test body has passed, every recorded deployment gets
a verdict:

* ``check_prefix_consistency`` over the non-crashed replicas'
  ``committed_logs()``: no two of them disagree at any position;
* for ``canopus`` and ``zkcanopus`` also ``check_cycle_agreement`` over
  every replica's ``commit_log`` as ``(cycle id, request ids)``: a cycle
  committed empty at one node and with requests at another fails here
  though it passes as a prefix.

A failed verdict fails the test with :class:`Disagreement`.  It is raised
at the end of the test's call phase rather than in a fixture's teardown, so
that a known disagreement can go in as ``xfail(strict=True,
raises=Disagreement)`` under its ROADMAP item: pytest judges ``xfail`` on
the call phase only.  The record is dropped after teardown.  It holds each
deployment strongly until then: a deployment is a reference cycle (its
nodes' timers point back at them), and a weak record lost most of them to
the cyclic garbage collector before the test's end.

A test opts out only with ``@pytest.mark.agreement_opt_out(reason)``, where
``reason`` is ``"ROADMAP: <title>"``, naming a ROADMAP item by (part of) its
title, or ``"mutation: <name>"``, naming the planted mutation (a function of
the test's module) that is meant to break agreement.
``tests/test_agreement_verdict.py`` lists every opt-out; the list may only
shrink.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.protocols.base import ConsensusProtocol
from repro.verify.agreement import check_cycle_agreement, check_prefix_consistency

ROADMAP = pathlib.Path(__file__).resolve().parents[1] / "ROADMAP.md"
#: The protocols whose replicas keep a per-cycle ``commit_log``.
CYCLE_LOGGED = ("canopus", "zkcanopus")

#: The deployments built since the last teardown.
_built: "list[ConsensusProtocol]" = []
_unwrapped_init = ConsensusProtocol.__init__


def _recording_init(self, *args, **kwargs):
    _unwrapped_init(self, *args, **kwargs)
    _built.append(self)


ConsensusProtocol.__init__ = _recording_init


class Disagreement(AssertionError):
    """The replicas of a deployment a test built disagree on what they committed."""


def agreement_verdict(protocol):
    """``(ok, message)``: do ``protocol``'s replicas agree on what they committed?"""
    logs = protocol.committed_logs()
    live = {node_id: logs[node_id] for node_id, node in protocol.nodes.items() if not node.crashed}
    ok, message = check_prefix_consistency(live)
    if ok and protocol.name in CYCLE_LOGGED:
        ok, message = check_cycle_agreement({
            node_id: [(cycle.cycle_id, [r.request_id for r in cycle.requests]) for cycle in node.commit_log]
            for node_id, node in protocol.nodes.items()
        })
    return ok, message


def roadmap_titles():
    return [
        line.split(". ", 1)[1].replace("`", "")
        for line in ROADMAP.read_text(encoding="utf-8").splitlines()
        if line.startswith("### ") and ". " in line
    ]


def opt_out_problem(item, reason):
    """Why ``reason`` is not an acceptable opt-out for ``item``, or None."""
    kind, _, name = reason.partition(": ")
    if kind == "ROADMAP" and name and any(name in title for title in roadmap_titles()):
        return None
    if kind == "mutation" and callable(getattr(item.module, name, None)):
        return None
    return (
        f"{item.nodeid}: agreement_opt_out reason {reason!r} names no ROADMAP item title "
        "('ROADMAP: <title>') and no mutation of the test's module ('mutation: <name>')"
    )


def pytest_configure(config):
    config.addinivalue_line(
        "markers",
        "agreement_opt_out(reason): no agreement verdict for this test; reason is "
        "'ROADMAP: <item title>' or 'mutation: <name>'",
    )


def pytest_collection_modifyitems(config, items):
    for item in items:
        for marker in item.iter_markers("agreement_opt_out"):
            problem = opt_out_problem(item, marker.args[0] if marker.args else "")
            if problem:
                raise pytest.UsageError(problem)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    result = yield  # re-raises a failure of the test body, which then gets no verdict
    if item.get_closest_marker("agreement_opt_out") is None:
        failures = []
        for protocol in _built:
            ok, message = agreement_verdict(protocol)
            if not ok:
                failures.append(f"{protocol!r}: {message}")
        if failures:
            raise Disagreement("replicas disagree at the end of the test:\n" + "\n".join(failures))
    return result


@pytest.hookimpl(trylast=True)
def pytest_runtest_teardown(item):
    _built.clear()
