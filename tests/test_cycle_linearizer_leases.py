"""Tests for cycle bookkeeping, the read linearizer, and write leases."""

import pytest

from repro.canopus.cycle import CycleState
from repro.canopus.leases import LeaseTable
from repro.canopus.linearizer import ReadLinearizer
from repro.canopus.messages import Proposal
from repro.runtime.messages import ClientRequest, RequestType


def proposal(sender, cycle=1, round_number=1, vnode=None, number=1):
    return Proposal(
        cycle_id=cycle,
        round_number=round_number,
        vnode_id=vnode or sender,
        sender=sender,
        proposal_number=number,
    )


class TestCycleState:
    def make_state(self):
        return CycleState(cycle_id=1, total_rounds=2, expected_members={"a", "b", "c"})

    def test_round1_incomplete_until_all_members_heard(self):
        state = self.make_state()
        state.record_round1(proposal("a"))
        assert not state.round1_complete()
        state.record_round1(proposal("b"))
        state.record_round1(proposal("c"))
        assert state.round1_complete()

    def test_duplicate_round1_proposal_ignored(self):
        state = self.make_state()
        assert state.record_round1(proposal("a")) is True
        assert state.record_round1(proposal("a")) is False

    def test_missing_round1_lists_absent_members(self):
        state = self.make_state()
        state.record_round1(proposal("a"))
        assert state.missing_round1() == {"b", "c"}

    def test_exclude_member_unblocks_round1(self):
        state = self.make_state()
        state.record_round1(proposal("a"))
        state.record_round1(proposal("b"))
        state.exclude_member("c")
        assert state.round1_complete()

    def test_vnode_state_recorded_once(self):
        state = self.make_state()
        vnode_state = proposal("a", round_number=2, vnode="1.2")
        assert state.record_vnode_state(vnode_state) is True
        assert state.record_vnode_state(vnode_state) is False
        assert state.has_vnode_state("1.2")

    def test_buffered_requests_drained_once(self):
        state = self.make_state()
        state.buffer_request("1.2", "remote-1")
        state.buffer_request("1.2", "remote-2")
        assert state.drain_buffered("1.2") == ["remote-1", "remote-2"]
        assert state.drain_buffered("1.2") == []

    def test_root_state_lookup(self):
        state = self.make_state()
        assert state.root_state("1") is None
        root = proposal("a", round_number=3, vnode="1")
        state.record_vnode_state(root)
        assert state.root_state("1") is root


class TestReadLinearizer:
    def read(self, key="k"):
        return ClientRequest(client_id="c", op=RequestType.READ, key=key)

    def test_defer_and_release(self):
        linearizer = ReadLinearizer()
        linearizer.defer(self.read(), "client-host", now=1.0, release_cycle=3)
        assert linearizer.pending_count() == 1
        assert linearizer.release_up_to(2) == []
        released = linearizer.release_up_to(3)
        assert len(released) == 1
        assert linearizer.pending_count() == 0

    def test_release_returns_reads_in_arrival_order(self):
        linearizer = ReadLinearizer()
        late = self.read("late")
        early = self.read("early")
        linearizer.defer(late, "h", now=2.0, release_cycle=1)
        linearizer.defer(early, "h", now=1.0, release_cycle=1)
        released = linearizer.release_up_to(1)
        assert [p.request.key for p in released] == ["early", "late"]

    def test_release_covers_all_older_cycles(self):
        linearizer = ReadLinearizer()
        linearizer.defer(self.read("a"), "h", 1.0, release_cycle=1)
        linearizer.defer(self.read("b"), "h", 2.0, release_cycle=2)
        linearizer.defer(self.read("c"), "h", 3.0, release_cycle=5)
        released = linearizer.release_up_to(3)
        assert {p.request.key for p in released} == {"a", "b"}
        assert linearizer.earliest_release_cycle() == 5

    def test_postpone_moves_read_to_later_cycle(self):
        linearizer = ReadLinearizer()
        pending = linearizer.defer(self.read(), "h", 1.0, release_cycle=2)
        linearizer.postpone(pending, 4)
        assert linearizer.release_up_to(2) == []
        assert len(linearizer.release_up_to(4)) == 1

    def test_counters(self):
        linearizer = ReadLinearizer()
        linearizer.defer(self.read(), "h", 1.0, 1)
        linearizer.defer(self.read(), "h", 1.0, 1)
        linearizer.release_up_to(1)
        assert linearizer.reads_buffered == 2
        assert linearizer.reads_released == 2


class TestLeaseTable:
    def test_lease_activates_one_cycle_after_commit(self):
        table = LeaseTable(lease_cycles=2)
        table.observe_committed_writes(cycle_id=5, keys=["k"])
        assert not table.lease_active("k", 5)
        assert table.lease_active("k", 6)
        assert table.lease_active("k", 7)
        assert not table.lease_active("k", 8)

    def test_unwritten_key_has_no_lease(self):
        table = LeaseTable()
        assert not table.lease_active("other", 1)

    def test_renewal_extends_expiry(self):
        table = LeaseTable(lease_cycles=2)
        table.observe_committed_writes(5, ["k"])
        table.observe_committed_writes(6, ["k"])
        assert table.lease_active("k", 8)
        assert table.leases_renewed == 1

    def test_expired_lease_can_be_regranted(self):
        table = LeaseTable(lease_cycles=1)
        table.observe_committed_writes(1, ["k"])
        assert not table.lease_active("k", 5)
        table.observe_committed_writes(9, ["k"])
        assert table.lease_active("k", 10)
        assert table.leases_granted == 2

    def test_prune_drops_expired_leases(self):
        table = LeaseTable(lease_cycles=1)
        table.observe_committed_writes(1, ["a", "b"])
        table.prune(10)
        assert len(table) == 0

    def test_active_leases_listing(self):
        table = LeaseTable(lease_cycles=3)
        table.observe_committed_writes(2, ["x", "y"])
        active = {lease.key for lease in table.active_leases(3)}
        assert active == {"x", "y"}

    def test_invalid_lease_duration_rejected(self):
        with pytest.raises(ValueError):
            LeaseTable(lease_cycles=0)
