"""No test steps the simulator by hand without a bound on simulated time.

Heartbeats and cycle timers never let the event queue run dry, so a
``while`` loop around ``sim.loop.step()`` that waits for something a bug
has stopped spins forever instead of failing.  Every such loop in
``tests/`` must be bounded in the same loop by a ``sim.now <`` (or ``<=``)
comparison, or be written with ``tests.helpers.step_until``, whose own
loop is bounded that way.
"""

import ast
import pathlib

TESTS = pathlib.Path(__file__).resolve().parent


def steps_the_engine(node):
    """``node`` is a call of ``<anything>.loop.step()``."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "step"
        and isinstance(node.func.value, ast.Attribute)
        and node.func.value.attr == "loop"
    )


def bounds_sim_time(node):
    """``node`` is a comparison that keeps ``<sim>.now`` below a bound."""
    if not isinstance(node, ast.Compare):
        return False
    operands = [node.left, *node.comparators]
    for op, left, right in zip(node.ops, operands, operands[1:]):
        if isinstance(op, (ast.Lt, ast.LtE)) and isinstance(left, ast.Attribute) and left.attr == "now":
            return True
        if isinstance(op, (ast.Gt, ast.GtE)) and isinstance(right, ast.Attribute) and right.attr == "now":
            return True
    return False


def unbounded_stepping_loops(source):
    """Line numbers of the ``while`` loops in ``source`` that step the
    engine with no sim-time bound of their own."""
    lines = []
    for loop in ast.walk(ast.parse(source)):
        if not isinstance(loop, ast.While):
            continue
        inside = list(ast.walk(loop))
        if any(map(steps_the_engine, inside)) and not any(map(bounds_sim_time, inside)):
            lines.append(loop.lineno)
    return lines


def test_every_stepping_loop_in_the_tests_is_bounded_in_sim_time():
    scanned, unbounded = 0, []
    for path in sorted(TESTS.rglob("*.py")):
        scanned += 1
        for line_number in unbounded_stepping_loops(path.read_text(encoding="utf-8")):
            unbounded.append(f"{path.relative_to(TESTS.parent)}:{line_number}")
    assert scanned > 30  # the walk found the tests
    assert not unbounded, "step the engine with tests.helpers.step_until:\n" + "\n".join(unbounded)


def test_the_check_takes_unbounded_loops_and_leaves_bounded_ones():
    source = """
while victim.last_started_cycle < 2:
    sim.loop.step()
while reply is None:
    assert sim.loop.step()
while reply is None:
    assert sim.loop.step() and sim.now < 0.01
while reply is None:
    assert deadline > sim.now
    assert sim.loop.step()
while not predicate():
    if not (sim.now <= deadline and sim.loop.step()):
        raise AssertionError
while sim.now > 0.5:
    sim.loop.step()
while pending:
    pending.pop()
"""
    assert unbounded_stepping_loops(source) == [2, 4, 14]
