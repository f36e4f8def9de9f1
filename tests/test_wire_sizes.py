"""Wire-size golden tests.

Every protocol message's ``wire_size()`` is pinned to an explicit byte
value.  The simulator's bandwidth and CPU models consume these sizes,
so any drift — intended or not — changes modelled timing and breaks the
byte-identical commit-log contract.  This table landed *before* the
message-representation slimming (``__slots__``, cached sizes) of ISSUE 7
precisely so that refactor could not silently move a size.

The golden rows themselves live in ``tests/wire_golden.py`` (ISSUE 9)
so that the ``slots-required`` static-analysis rule and this test read
one source of truth: the rows drive the assertions here, and the
:data:`wire_golden.WIRE_COVERED` literal the linter cross-checks is
verified below to agree with the classes the rows actually construct.
"""

from __future__ import annotations

import importlib

import pytest

from repro.canopus.messages import Proposal
from repro.epaxos.messages import PreAccept
from repro.runtime.base import estimate_size
from repro.zab.messages import ZabProposal

from wire_golden import GOLDEN, WIRE_COVERED, _instance, _requests


@pytest.mark.parametrize("name,factory,expected", GOLDEN, ids=[row[0] for row in GOLDEN])
def test_wire_size_golden(name, factory, expected):
    message = factory()
    assert message.wire_size() == expected
    # The size the transports charge must agree with the method.
    assert estimate_size(message) == expected


def test_wire_size_fallback_for_opaque_payloads():
    assert estimate_size(object()) == 64


def test_batched_sizes_scale_linearly():
    """Batch-carrying messages charge exactly per-entry costs (no hidden
    per-batch rounding the slimming could change)."""
    for count in (1, 2, 7, 50):
        assert PreAccept(_instance(), _requests(count), 1, frozenset()).wire_size() == 56 + 48 * count
        assert ZabProposal(1, "n0", _requests(count)).wire_size() == 48 + 48 * count
        assert Proposal(1, 1, "v0", "n0", 1, requests=_requests(count)).wire_size() == 40 + 48 * count


def _module_name(relpath: str) -> str:
    assert relpath.startswith("src/") and relpath.endswith(".py")
    return relpath[len("src/"):-len(".py")].replace("/", ".")


def test_wire_covered_matches_golden_factories():
    """``WIRE_COVERED`` (the literal the linter reads statically) must list
    exactly the ``wire_size``-bearing classes of each module it names, and
    every class a GOLDEN factory constructs must be listed — so the linter's
    coverage map cannot drift from what the goldens actually pin."""
    listed = {}
    for relpath, class_names in WIRE_COVERED.items():
        module = importlib.import_module(_module_name(relpath))
        with_wire_size = {
            name
            for name, obj in vars(module).items()
            if isinstance(obj, type)
            and obj.__module__ == module.__name__
            and not issubclass(obj, (BaseException,))
            and "wire_size" in vars(obj)
        }
        assert set(class_names) == with_wire_size, (
            f"{relpath}: WIRE_COVERED lists {sorted(class_names)} but the module "
            f"defines wire_size on {sorted(with_wire_size)}"
        )
        for name in class_names:
            listed[(module.__name__, name)] = getattr(module, name)

    listed_classes = set(listed.values())
    for name, factory, _expected in GOLDEN:
        constructed = type(factory())
        if constructed.__name__ == "object":  # opaque-payload rows wrap object()
            continue
        assert constructed in listed_classes, (
            f"golden row {name!r} constructs {constructed.__qualname__}, "
            "which WIRE_COVERED does not list"
        )


def test_wire_covered_is_a_pure_literal():
    """The linter evaluates the WIRE_COVERED assignment with
    ``ast.literal_eval`` — re-parse the source the same way to guarantee
    it stays statically readable."""
    import ast
    import pathlib

    source = pathlib.Path(__file__).with_name("wire_golden.py").read_text()
    tree = ast.parse(source)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "WIRE_COVERED" for t in node.targets
        ):
            assert ast.literal_eval(node.value) == WIRE_COVERED
            return
    pytest.fail("WIRE_COVERED assignment not found in wire_golden.py")
