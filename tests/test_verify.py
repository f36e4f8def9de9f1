"""Tests for the agreement and linearizability checkers."""

import pytest

from repro.verify.agreement import (
    check_agreement,
    check_cycle_agreement,
    check_fifo_client_order,
    check_prefix_consistency,
)
from repro.verify.history import History
from repro.verify.linearizability import check_linearizable_history, check_linearizable_key


class TestAgreement:
    def test_identical_orders_agree(self):
        ok, _ = check_agreement({"a": [1, 2, 3], "b": [1, 2, 3]})
        assert ok

    def test_prefix_orders_agree(self):
        ok, _ = check_agreement({"a": [1, 2, 3], "b": [1, 2]})
        assert ok

    def test_diverging_orders_detected(self):
        ok, message = check_agreement({"a": [1, 2, 3], "b": [1, 3, 2]})
        assert not ok
        assert "position" in message

    def test_extra_request_on_one_node_detected(self):
        ok, _ = check_prefix_consistency({"a": [1, 2], "b": [1, 9]})
        assert not ok

    def test_empty_input_agrees(self):
        assert check_agreement({})[0]
        assert check_cycle_agreement({})[0]

    def test_cycle_agreement_accepts_a_trailing_node(self):
        ok, _ = check_cycle_agreement({"a": [(1, [1]), (2, [2, 3])], "b": [(1, [1])]})
        assert ok

    def test_last_cycle_committed_empty_at_one_node_is_caught_per_cycle(self):
        """The flat order passes it as a prefix; cycle 2 differs."""
        logs = {"a": [(1, [1]), (2, [])], "b": [(1, [1]), (2, [2])]}
        assert check_agreement({node: [r for _, ids in log for r in ids] for node, log in logs.items()})[0]
        ok, message = check_cycle_agreement(logs)
        assert not ok
        assert "cycle 2" in message

    def test_fifo_client_order_positive(self):
        history = History()
        history.add("c1", "write", "k", "1", invoked_at=0.0, completed_at=1.0)
        history.add("c1", "read", "k", "1", invoked_at=2.0, completed_at=3.0)
        ok, _ = check_fifo_client_order(history)
        assert ok

    def test_fifo_client_order_violation_detected(self):
        history = History()
        history.add("c1", "write", "k", "1", invoked_at=0.0, completed_at=5.0)
        history.add("c1", "read", "k", None, invoked_at=1.0, completed_at=2.0)
        ok, message = check_fifo_client_order(history)
        assert not ok
        assert "c1" in message


class TestLinearizabilityChecker:
    def test_sequential_read_after_write_is_linearizable(self):
        history = History()
        history.add("c1", "write", "k", "1", 0.0, 1.0)
        history.add("c2", "read", "k", "1", 2.0, 3.0)
        ok, _ = check_linearizable_history(history)
        assert ok

    def test_stale_read_after_write_completes_is_not_linearizable(self):
        history = History()
        history.add("c1", "write", "k", "1", 0.0, 1.0)
        history.add("c2", "read", "k", None, 2.0, 3.0)  # must have seen "1"
        ok, message = check_linearizable_history(history)
        assert not ok
        assert "k" in message

    def test_concurrent_read_may_see_old_or_new_value(self):
        base = [("c1", "write", "k", "1", 0.0, 10.0)]
        for observed in (None, "1"):
            history = History()
            for op in base:
                history.add(*op)
            history.add("c2", "read", "k", observed, 2.0, 3.0)
            ok, _ = check_linearizable_history(history)
            assert ok, f"read of {observed!r} during concurrent write should be legal"

    def test_read_of_never_written_value_is_illegal(self):
        history = History()
        history.add("c1", "write", "k", "1", 0.0, 1.0)
        history.add("c2", "read", "k", "ghost", 2.0, 3.0)
        ok, _ = check_linearizable_history(history)
        assert not ok

    def test_reads_must_respect_write_order(self):
        history = History()
        history.add("c1", "write", "k", "1", 0.0, 1.0)
        history.add("c1", "write", "k", "2", 2.0, 3.0)
        history.add("c2", "read", "k", "2", 4.0, 5.0)
        history.add("c3", "read", "k", "1", 6.0, 7.0)  # goes backwards in time
        ok, _ = check_linearizable_history(history)
        assert not ok

    def test_initial_value_respected(self):
        history = History()
        history.add("c1", "read", "k", "init", 0.0, 1.0)
        ok, _ = check_linearizable_history(history, initial_values={"k": "init"})
        assert ok
        ok, _ = check_linearizable_history(history)
        assert not ok

    def test_empty_history_is_linearizable(self):
        assert check_linearizable_key([]) is True

    def test_keys_are_checked_independently(self):
        history = History()
        history.add("c1", "write", "a", "1", 0.0, 1.0)
        history.add("c2", "read", "a", "1", 2.0, 3.0)
        history.add("c3", "write", "b", "9", 0.0, 1.0)
        history.add("c4", "read", "b", None, 5.0, 6.0)  # violation on key b only
        ok, message = check_linearizable_history(history)
        assert not ok
        assert "b" in message

    def test_operation_interval_validation(self):
        history = History()
        with pytest.raises(ValueError):
            history.add("c", "read", "k", None, invoked_at=2.0, completed_at=1.0)

    def test_history_grouping_helpers(self):
        history = History()
        history.add("c1", "write", "a", "1", 0.0, 1.0)
        history.add("c2", "read", "b", None, 0.0, 1.0)
        history.add("c1", "read", "a", "1", 2.0, 3.0)
        assert set(history.by_key()) == {"a", "b"}
        assert len(history.by_client()["c1"]) == 2
        assert len(history) == 3
