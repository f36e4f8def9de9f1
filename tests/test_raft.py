"""Tests for the Raft substrate (log, replication, election)."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.raft.log import LogEntry, RaftLog
from repro.raft.messages import AppendEntries, AppendEntriesReply
from repro.raft.node import RaftConfig, RaftNode
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network


class TestRaftLog:
    def test_empty_log(self):
        log = RaftLog()
        assert len(log) == 0
        assert log.last_index == 0
        assert log.last_term == 0
        assert log.term_at(0) == 0

    def test_append_assigns_increasing_indices(self):
        log = RaftLog()
        first = log.append_new(1, "a")
        second = log.append_new(1, "b")
        assert (first.index, second.index) == (1, 2)

    def test_entry_out_of_range_raises(self):
        log = RaftLog()
        with pytest.raises(IndexError):
            log.entry(1)

    def test_matches_consistency_check(self):
        log = RaftLog()
        log.append_new(1, "a")
        assert log.matches(0, 0)
        assert log.matches(1, 1)
        assert not log.matches(1, 2)
        assert not log.matches(5, 1)

    def test_merge_appends_new_entries(self):
        log = RaftLog()
        log.merge(0, [LogEntry(term=1, index=1, command="a"), LogEntry(term=1, index=2, command="b")])
        assert len(log) == 2

    def test_merge_truncates_conflicting_suffix(self):
        log = RaftLog()
        log.append_new(1, "a")
        log.append_new(1, "b")
        log.append_new(1, "c")
        log.merge(1, [LogEntry(term=2, index=2, command="B")])
        assert len(log) == 2
        assert log.entry(2).command == "B"
        assert log.entry(2).term == 2

    def test_merge_is_idempotent_for_matching_entries(self):
        log = RaftLog()
        log.append_new(1, "a")
        log.merge(0, [LogEntry(term=1, index=1, command="a")])
        assert len(log) == 1

    def test_commands_range(self):
        log = RaftLog()
        for command in ("a", "b", "c"):
            log.append_new(1, command)
        assert log.commands(2, 3) == ["b", "c"]

    def test_entries_from(self):
        log = RaftLog()
        for command in ("a", "b", "c"):
            log.append_new(1, command)
        assert [e.command for e in log.entries_from(2)] == ["b", "c"]
        assert log.entries_from(9) == ()


def build_raft_group(member_count=3, initial_leader=None, seed=5, names=None):
    """A fully connected simulated network with one Raft group on top.

    The members are ``r0``, ``r1``, ... unless ``names`` are given; the
    first one is the initial leader unless ``initial_leader`` says otherwise.
    """
    sim = Simulator(seed=seed)
    network = Network(sim.loop)
    names = names or [f"r{i}" for i in range(member_count)]
    initial_leader = initial_leader or names[0]
    network.add_switch("sw")
    for name in names:
        network.add_host(name)
        network.add_link(name, "sw", 2e-5, 1e9)
    applied = {name: [] for name in names}
    nodes = {}
    for name in names:
        runtime = SimRuntime(sim, network, network.hosts[name])
        node = RaftNode(
            runtime,
            group_id="g",
            members=names,
            apply=lambda entry, n=name: applied[n].append(entry.command),
            config=RaftConfig(initial_leader=initial_leader),
        )
        runtime.set_handler(node.on_message)
        nodes[name] = node
    return sim, network, nodes, applied


class TestReplication:
    def test_initial_leader_configured(self):
        _, _, nodes, _ = build_raft_group()
        assert nodes["r0"].is_leader
        assert not nodes["r1"].is_leader

    def test_leader_commits_after_majority(self):
        sim, _, nodes, applied = build_raft_group()
        nodes["r0"].propose("cmd-1")
        sim.run_until(0.1)
        assert applied["r0"] == ["cmd-1"]

    def test_followers_apply_committed_entries(self):
        sim, _, nodes, applied = build_raft_group()
        nodes["r0"].propose("cmd-1")
        nodes["r0"].propose("cmd-2")
        sim.run_until(0.2)
        for name in ("r1", "r2"):
            assert applied[name] == ["cmd-1", "cmd-2"]

    def test_follower_propose_returns_none(self):
        _, _, nodes, _ = build_raft_group()
        assert nodes["r1"].propose("nope") is None

    def test_single_member_group_commits_immediately(self):
        sim, _, nodes, applied = build_raft_group(member_count=1)
        nodes["r0"].propose("solo")
        sim.run_until(0.05)
        assert applied["r0"] == ["solo"]

    def test_commit_order_is_identical_everywhere(self):
        sim, _, nodes, applied = build_raft_group(member_count=5)
        for i in range(10):
            nodes["r0"].propose(f"cmd-{i}")
        sim.run_until(0.5)
        reference = applied["r0"]
        assert len(reference) == 10
        for name, log in applied.items():
            assert log == reference

    def test_crashed_follower_does_not_block_commit(self):
        sim, network, nodes, applied = build_raft_group(member_count=3)
        network.hosts["r2"].fail()
        nodes["r0"].propose("cmd")
        sim.run_until(0.2)
        assert applied["r0"] == ["cmd"]
        assert applied["r1"] == ["cmd"]
        assert applied["r2"] == []


class TestAppliedExactlyOnce:
    """Every member applies every entry of the log exactly once: an
    acknowledged one when it commits, in log order, and an unacknowledged
    one when it is appended."""

    #: One super-leaf's broadcast group, named as Canopus names its nodes.
    SUPER_LEAF = ["n0-0", "n0-1", "n0-2"]

    def test_each_member_applies_the_committed_log_in_order(self):
        sim, _, nodes, applied = build_raft_group(names=self.SUPER_LEAF)
        for index in range(4):
            nodes["n0-0"].propose(f"cmd-{index}")
        sim.run_until(0.05)
        for name, node in nodes.items():
            assert node.commit_index == node.last_applied == 4, name
            assert applied[name] == [f"cmd-{index}" for index in range(4)], name

    def test_each_member_applies_each_kind_of_entry_once(self):
        sim, _, nodes, applied = build_raft_group(names=self.SUPER_LEAF)
        leader = nodes["n0-0"]
        for index in range(3):
            leader.propose(f"cmd-{index}")
            leader.propose(f"copy-{index}", acknowledged=False)
        sim.run_until(0.25)  # the last copy is committed by a heartbeat
        for name, node in nodes.items():
            assert node.commit_index == node.last_applied == 6, name
            log = [entry.command for entry in node.log.entries_from(1)]
            assert sorted(applied[name]) == sorted(log), name
            # The acknowledged entries in log order; each copy on arrival.
            assert [c for c in applied[name] if c.startswith("cmd")] == ["cmd-0", "cmd-1", "cmd-2"]
            assert [c for c in applied[name] if c.startswith("copy")] == ["copy-0", "copy-1", "copy-2"]


class TestElection:
    def test_new_leader_elected_after_leader_crash(self):
        sim, network, nodes, applied = build_raft_group(member_count=3)
        nodes["r0"].propose("before-crash")
        sim.run_until(0.2)
        network.hosts["r0"].fail()
        nodes["r0"].stop()
        sim.run_until(2.0)
        leaders = [name for name, node in nodes.items() if node.is_leader and name != "r0"]
        assert len(leaders) == 1
        # The new leader can still commit entries with the remaining majority.
        new_leader = nodes[leaders[0]]
        new_leader.propose("after-crash")
        sim.run_until(3.0)
        survivors = [name for name in nodes if name != "r0"]
        for name in survivors:
            assert applied[name] == ["before-crash", "after-crash"]

    def test_term_increases_on_election(self):
        sim, network, nodes, _ = build_raft_group(member_count=3)
        initial_term = nodes["r1"].current_term
        network.hosts["r0"].fail()
        nodes["r0"].stop()
        sim.run_until(2.0)
        new_leader = next(node for name, node in nodes.items() if node.is_leader and name != "r0")
        assert new_leader.current_term > initial_term

    def test_election_waits_out_the_timeout_from_the_last_heartbeat(self):
        sim, network, nodes, _ = build_raft_group(member_count=3)
        config = nodes["r1"].config
        sim.run_until(1.0)
        term = nodes["r1"].current_term
        network.hosts["r0"].fail()
        nodes["r0"].stop()
        # The last heartbeat left r0 at most one interval before the crash.
        sim.run_until(1.0 - config.heartbeat_interval_s + config.election_timeout_min_s - 0.001)
        assert nodes["r1"].current_term == nodes["r2"].current_term == term
        sim.run_until(1.0 + config.election_timeout_max_s + 0.001)
        assert max(nodes["r1"].current_term, nodes["r2"].current_term) > term

    def test_heartbeats_do_not_pile_up_election_timers(self):
        sim, _, nodes, _ = build_raft_group(member_count=3)
        follower = nodes["r1"]
        armed = []
        after = follower.runtime.after
        follower.runtime.after = lambda delay, callback: armed.append(delay) or after(delay, callback)
        sim.run_until(2.0)
        resets = 2.0 / follower.config.heartbeat_interval_s
        # One live timer re-arming itself for the rest of the deadline: about
        # one per election timeout, not one per AppendEntries.
        assert len(armed) < resets / 4
        assert not follower.is_leader and follower.current_term == 1

    def test_vote_denied_to_stale_log(self):
        sim, _, nodes, _ = build_raft_group(member_count=3)
        for i in range(3):
            nodes["r0"].propose(f"cmd-{i}")
        sim.run_until(0.2)
        from repro.raft.messages import RequestVote

        stale = RequestVote(group_id="g", term=nodes["r1"].current_term + 1,
                            candidate_id="r2", last_log_index=0, last_log_term=0)
        nodes["r1"]._on_request_vote(stale)
        assert nodes["r1"].voted_for != "r2"

    def test_handles_filters_by_group_id(self):
        _, _, nodes, _ = build_raft_group()
        from repro.raft.messages import AppendEntries

        own = AppendEntries(group_id="g", term=1, leader_id="r0", prev_log_index=0, prev_log_term=0)
        other = AppendEntries(group_id="other", term=1, leader_id="r0", prev_log_index=0, prev_log_term=0)
        assert nodes["r1"].handles(own)
        assert not nodes["r1"].handles(other)

    def test_remove_member_shrinks_majority(self):
        sim, network, nodes, applied = build_raft_group(member_count=5)
        for name in ("r3", "r4"):
            network.hosts[name].fail()
            nodes["r0"].remove_member(name)
            nodes["r1"].remove_member(name)
            nodes["r2"].remove_member(name)
        nodes["r0"].propose("shrunk")
        sim.run_until(0.3)
        assert applied["r0"] == ["shrunk"]


class TestTermsAndLeaders:
    """What a member believes about the term and its leader."""

    @staticmethod
    def vote_request(term, candidate="r2", last_log_index=0, last_log_term=0):
        from repro.raft.messages import RequestVote

        return RequestVote("g", term, candidate, last_log_index, last_log_term)

    def test_a_leader_deposed_by_a_higher_term_names_no_leader(self):
        """A vote request from a later term says a new term has begun, not
        who leads it: the deposed leader must not keep naming itself."""
        _, _, nodes, _ = build_raft_group()
        leader = nodes["r0"]
        leader._on_request_vote(self.vote_request(term=5))
        assert not leader.is_leader and leader.current_term == 5
        assert leader.leader_id is None

    def test_a_follower_learns_the_new_leader_from_its_first_append(self):
        sim, network, nodes, _ = build_raft_group()
        network.hosts["r0"].fail()
        nodes["r0"].stop()
        sim.run_until(2.0)
        (winner,) = [name for name, node in nodes.items() if node.is_leader and name != "r0"]
        assert all(nodes[name].leader_id == winner for name in ("r1", "r2"))

    def test_a_candidate_that_hears_a_same_term_leader_follows_it(self):
        _, _, nodes, _ = build_raft_group()
        candidate = nodes["r2"]
        candidate._start_election()
        term = candidate.current_term
        append = AppendEntries("g", term, "r1", 0, 0, probe=True)
        candidate.on_message("r1", append)
        assert not candidate.is_leader and candidate.current_term == term
        assert candidate.leader_id == "r1"

    def test_a_stale_leader_steps_down_on_a_later_terms_reply(self):
        sim, _, nodes, _ = build_raft_group()
        follower = nodes["r1"]
        follower._on_request_vote(self.vote_request(term=4))  # r1 moves on to term 4
        sim.run_until(0.03)  # r0's heartbeat at term 1 is refused with term 4
        assert not nodes["r0"].is_leader and nodes["r0"].current_term >= 4
        assert nodes["r0"].leader_id != "r0"

    def test_one_vote_per_term(self):
        _, _, nodes, _ = build_raft_group(member_count=5)
        voter = nodes["r1"]
        voter._on_request_vote(self.vote_request(term=3, candidate="r2"))
        voter._on_request_vote(self.vote_request(term=3, candidate="r3"))
        assert voter.voted_for == "r2"
        voter._on_request_vote(self.vote_request(term=4, candidate="r3"))
        assert voter.voted_for == "r3"

    def test_a_candidate_refused_by_a_later_term_steps_down(self):
        from repro.raft.messages import RequestVoteReply

        _, _, nodes, _ = build_raft_group()
        candidate = nodes["r2"]
        candidate._start_election()
        candidate.on_message("r1", RequestVoteReply("g", candidate.current_term + 2, "r1", False))
        assert candidate.role.value == "follower" and candidate.leader_id is None

    def test_a_stopped_leader_proposes_nothing_and_goes_silent(self):
        sim, _, nodes, applied = build_raft_group()
        sim.run_until(0.005)  # the initial heartbeats have arrived
        wire, _ = tap(nodes)
        nodes["r0"].stop()
        assert nodes["r0"].propose("late") is None
        sim.run_until(0.09)  # several heartbeat intervals, short of an election
        assert not [m for _, m in wire if isinstance(m, AppendEntries)]
        assert applied == {"r0": [], "r1": [], "r2": []}


class TestFollowerReplies:
    """A follower answers an AppendEntries with ``probe`` set, and one it
    cannot accept; it stays silent on an accepted notice or copy."""

    @staticmethod
    def follower_with_one_entry():
        node, applied = TestInStepAppendMatchesMerge.follower()
        entry = LogEntry(1, 1, "cmd")
        node.on_message("l", AppendEntries("g", 1, "l", 0, 0, (entry,), 0, True))
        node.transport.sent.clear()
        return node, applied

    def test_an_accepted_notice_draws_no_reply_and_commits(self):
        node, applied = self.follower_with_one_entry()
        node.on_message("l", AppendEntries("g", 1, "l", 1, 1, (), 1, False))
        assert node.transport.sent == []
        assert node.commit_index == 1 and applied[-1].command == "cmd"

    def test_a_notice_past_the_log_draws_a_reply_naming_where_to_resume(self):
        node, _ = self.follower_with_one_entry()
        node.on_message("l", AppendEntries("g", 1, "l", 3, 1, (), 3, False))
        (reply,) = node.transport.sent
        assert (reply.success, reply.match_index, reply.term) == (False, 1, 1)
        assert node.commit_index == 0

    def test_a_stale_term_append_is_refused_with_the_current_term(self):
        node, _ = self.follower_with_one_entry()
        node.current_term = 3
        node.on_message("l", AppendEntries("g", 2, "l", 1, 1, (), 1, True))
        (reply,) = node.transport.sent
        assert (reply.success, reply.term) == (False, 3)
        assert node.commit_index == 0 and node.leader_id == "l"


class _Payload:
    """A command with a wire size large enough to show up in byte counts."""

    BYTES = 1000

    def wire_size(self):
        return self.BYTES


def tap(nodes, hold=lambda receiver, message: False):
    """Record every delivered message as ``(receiver, message)``.

    ``hold(receiver, message)`` returning True keeps the message from the
    receiver; held messages are collected for the test to deliver later (a
    reordering) or never (a loss).
    """
    wire, held = [], []
    for name, node in nodes.items():

        def handler(sender, message, name=name, node=node):
            if hold(name, message):
                held.append((name, sender, message))
                return
            wire.append((name, message))
            node.on_message(sender, message)

        node.runtime.set_handler(handler)
    return wire, held


def is_notice(message):
    return isinstance(message, AppendEntries) and not message.entries and not message.probe


def carries_entries(message):
    return isinstance(message, AppendEntries) and bool(message.entries)


class TestBroadcastCost:
    """One proposal costs 3(n-1) messages and n-1 copies of the payload."""

    SETTLED_S = 0.005  # the initial heartbeat round is over, the next is at 0.02

    def test_one_propose_in_a_nine_member_group(self):
        sim, _, nodes, applied = build_raft_group(member_count=9)
        wire, _ = tap(nodes)
        sim.run_until(self.SETTLED_S)
        del wire[:]
        leader = nodes["r0"]
        bytes_before = leader.transport.bytes_sent
        payload = _Payload()
        leader.propose(payload)
        sim.run_until(0.015)

        messages = [message for _, message in wire]
        assert sum(carries_entries(m) for m in messages) == 8
        assert sum(isinstance(m, AppendEntriesReply) for m in messages) == 8
        assert sum(is_notice(m) for m in messages) == 8
        assert len(messages) == 24
        header = AppendEntries("g", 1, "r0", 0, 0).wire_size()
        entry = header + _Payload.BYTES + 16
        assert leader.transport.bytes_sent - bytes_before == 8 * entry + 8 * header
        assert all(log == [payload] for log in applied.values())

    def test_back_to_back_proposals_ship_each_payload_once(self):
        sim, _, nodes, applied = build_raft_group(member_count=5)
        wire, _ = tap(nodes)
        sim.run_until(self.SETTLED_S)
        del wire[:]
        for index in range(3):
            nodes["r0"].propose(f"cmd-{index}")  # no ack between them
        sim.run_until(0.015)
        shipped = [m for receiver, m in wire if receiver == "r3" and carries_entries(m)]
        assert [[e.command for e in m.entries] for m in shipped] == [["cmd-0"], ["cmd-1"], ["cmd-2"]]
        assert all(log == ["cmd-0", "cmd-1", "cmd-2"] for log in applied.values())


class TestOptimisticNextIndex:
    """next_index advances on send; a follower that is behind still converges."""

    def test_lagging_follower_catches_up_after_recovery(self):
        sim, network, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(0.005)
        network.hosts["r2"].fail()
        for index in range(3):
            nodes["r0"].propose(f"cmd-{index}")
        sim.run_until(0.015)
        assert applied["r1"] == ["cmd-0", "cmd-1", "cmd-2"] and applied["r2"] == []
        # The leader believes r2 has been sent everything.
        assert nodes["r0"].next_index["r2"] == 4 and nodes["r0"].match_index["r2"] == 0
        network.hosts["r2"].recover()
        sim.run_until(0.05)  # one heartbeat: rejected, resent from where r2 says it can match
        assert applied["r2"] == ["cmd-0", "cmd-1", "cmd-2"]
        assert nodes["r0"].match_index["r2"] == 3

    def test_follower_one_entry_behind_a_new_leader_is_sent_one_entry(self):
        """A new leader knows no match_index; the follower's reply says where
        to resume, so the log is not re-shipped from the start."""
        sim, network, nodes, applied = build_raft_group(member_count=3)
        for index in range(4):
            nodes["r0"].propose(f"cmd-{index}")
        sim.run_until(0.01)
        network.hosts["r2"].fail()
        nodes["r0"].propose("cmd-4")
        sim.run_until(0.02)
        assert nodes["r1"].log.last_index == 5 and nodes["r2"].log.last_index == 4
        network.hosts["r0"].fail()
        network.hosts["r2"].recover()
        wire, _ = tap(nodes)
        sim.run_until(1.0)
        assert nodes["r1"].is_leader
        shipped = [m for receiver, m in wire if receiver == "r2" and carries_entries(m)]
        assert [[e.command for e in m.entries] for m in shipped] == [["cmd-4"]]
        assert applied["r2"] == [f"cmd-{index}" for index in range(5)]
        assert nodes["r1"].match_index["r2"] == 5

    def test_diverged_follower_converges_under_a_new_leader(self):
        sim, network, nodes, applied = build_raft_group(member_count=3)
        nodes["r0"].propose("agreed")
        sim.run_until(0.01)
        # r0 appends an entry nobody else ever sees, then loses leadership.
        network.hosts["r0"].fail()
        nodes["r0"].propose("orphan")
        sim.run_until(1.0)
        new_leader = next(node for name, node in nodes.items() if node.is_leader and name != "r0")
        new_leader.propose("after")
        sim.run_until(1.1)
        network.hosts["r0"].recover()
        sim.run_until(2.0)
        assert not nodes["r0"].is_leader
        assert [entry.command for entry in nodes["r0"].log.entries_from(1)] == ["agreed", "after"]
        assert applied["r0"] == ["agreed", "after"]

    def test_notice_overtaking_its_entry(self):
        """The asyncio substrate does not keep two messages in order."""
        sim, _, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(0.005)
        wire, held = tap(nodes, hold=lambda receiver, m: receiver == "r2" and carries_entries(m))
        nodes["r0"].propose("cmd")
        sim.run_until(0.01)
        # r2 saw the notice first, rejected it, and the resend is held too.
        assert applied["r2"] == [] and applied["r1"] == ["cmd"]
        assert any(is_notice(m) for receiver, m in wire if receiver == "r2")
        tap(nodes)
        for receiver, sender, message in held:
            nodes[receiver].on_message(sender, message)
        sim.run_until(0.015)
        assert applied["r2"] == ["cmd"]
        assert nodes["r0"].match_index["r2"] == 1

    def test_lost_notice_is_repaired_by_the_next_heartbeat(self):
        sim, _, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(0.005)
        tap(nodes, hold=lambda receiver, m: receiver == "r2" and is_notice(m))
        nodes["r0"].propose("cmd")
        sim.run_until(0.015)
        assert applied["r1"] == ["cmd"]
        assert applied["r2"] == [] and nodes["r2"].log.last_index == 1  # holds it, cannot apply it
        sim.run_until(0.03)  # heartbeat at 0.02 carries leader_commit
        assert applied["r2"] == ["cmd"]


class TestUnacknowledgedAppend:
    """``propose(command, acknowledged=False)``: n-1 messages, one hop, applied
    on arrival; still a log entry, so the log-matching path repairs a loss."""

    SETTLED_S = TestBroadcastCost.SETTLED_S

    @staticmethod
    def is_copy(message):
        return carries_entries(message) and not message.entries[-1].acknowledged

    def test_one_append_in_a_nine_member_group(self):
        sim, _, nodes, applied = build_raft_group(member_count=9)
        wire, _ = tap(nodes)
        sim.run_until(self.SETTLED_S)
        del wire[:]
        leader = nodes["r0"]
        bytes_before = leader.transport.bytes_sent
        payload = _Payload()
        leader.propose(payload, acknowledged=False)
        assert applied["r0"] == [payload]  # at the sender at once
        sim.run_until(0.015)

        messages = [message for _, message in wire]
        assert len(messages) == 8 and all(self.is_copy(m) and not m.probe for m in messages)
        header = AppendEntries("g", 1, "r0", 0, 0).wire_size()
        assert leader.transport.bytes_sent - bytes_before == 8 * (header + _Payload.BYTES + 16)
        # Applied everywhere on arrival; committed nowhere yet.
        assert all(log == [payload] for log in applied.values())
        assert all(node.commit_index == 0 and node.log.last_index == 1 for node in nodes.values())

        del wire[:]
        sim.run_until(0.03)  # the heartbeat at 0.02 is acknowledged, then a notice
        assert all(node.commit_index == node.last_applied == 1 for node in nodes.values())
        assert all(log == [payload] for log in applied.values())  # and nothing applied twice
        assert sum(is_notice(m) for _, m in wire) == 8

    def test_the_next_acknowledged_entry_commits_it_with_one_notice(self):
        sim, _, nodes, applied = build_raft_group(member_count=5)
        wire, _ = tap(nodes)
        sim.run_until(self.SETTLED_S)
        del wire[:]
        nodes["r0"].propose("copy", acknowledged=False)
        nodes["r0"].propose("cmd")
        sim.run_until(0.015)
        assert all(node.commit_index == 2 for node in nodes.values())
        assert all(log == ["copy", "cmd"] for log in applied.values())
        messages = [message for _, message in wire]
        assert len(messages) == 4 + 3 * 4  # one hop for the copy, the full exchange for the entry
        assert sum(is_notice(m) for m in messages) == 4

    def test_it_may_overtake_an_acknowledged_entry_but_not_its_own_kind(self):
        sim, _, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(self.SETTLED_S)
        nodes["r0"].propose("cmd")
        nodes["r0"].propose("copy-1", acknowledged=False)
        nodes["r0"].propose("copy-2", acknowledged=False)
        sim.run_until(0.015)
        for name in ("r1", "r2"):
            assert applied[name] == ["copy-1", "copy-2", "cmd"]  # arrival, arrival, commit
        assert [e.command for e in nodes["r1"].log.entries_from(1)] == ["cmd", "copy-1", "copy-2"]

    def test_dropped_copy_is_repaired_by_the_next_acknowledged_entry(self):
        sim, _, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(self.SETTLED_S)
        wire, held = tap(nodes, hold=lambda receiver, m: receiver == "r2" and self.is_copy(m))
        nodes["r0"].propose("copy", acknowledged=False)
        sim.run_until(0.008)
        assert applied["r1"] == ["copy"] and applied["r2"] == [] and len(held) == 1
        wire, _ = tap(nodes)  # the copy is lost for good; everything else gets through
        nodes["r0"].propose("cmd")
        sim.run_until(0.015)
        # r2 failed the consistency check, said where it can match, and was
        # resent both entries in one acknowledged message (and once more for
        # the commit notice that chased the first: it failed the check too).
        first, *resent = [m for receiver, m in wire if receiver == "r2" and carries_entries(m)]
        assert [e.command for e in first.entries] == ["cmd"]
        assert resent and all([e.command for e in m.entries] == ["copy", "cmd"] for m in resent)
        assert all(m.probe for m in resent)
        assert applied["r2"] == ["copy", "cmd"]
        assert applied["r0"] == applied["r1"] == ["copy", "cmd"]
        assert nodes["r0"].match_index["r2"] == 2

    def test_dropped_copy_is_repaired_by_the_next_heartbeat(self):
        sim, _, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(self.SETTLED_S)
        tap(nodes, hold=lambda receiver, m: receiver == "r2" and self.is_copy(m))
        nodes["r0"].propose("copy", acknowledged=False)
        sim.run_until(0.015)
        assert applied["r2"] == [] and nodes["r2"].log.last_index == 0
        tap(nodes)
        sim.run_until(0.03)  # heartbeat at 0.02: rejected, resent, applied on arrival
        assert applied == {"r0": ["copy"], "r1": ["copy"], "r2": ["copy"]}
        assert all(node.commit_index == 1 for node in nodes.values())

    def test_a_copy_received_twice_is_applied_once(self):
        sim, _, nodes, applied = build_raft_group(member_count=3)
        sim.run_until(self.SETTLED_S)
        wire, _ = tap(nodes)
        nodes["r0"].propose("copy", acknowledged=False)
        sim.run_until(0.008)
        (copy,) = [m for receiver, m in wire if receiver == "r2" and self.is_copy(m)]
        nodes["r2"].on_message("r0", copy)  # a duplicate delivery
        sim.run_until(0.05)
        assert applied["r2"] == ["copy"]

    def test_follower_cannot_append_this_way_and_a_lone_leader_applies_once(self):
        _, _, nodes, applied = build_raft_group(member_count=3)
        assert nodes["r1"].propose("nope", acknowledged=False) is None and applied["r1"] == []
        sim, _, solo, applied = build_raft_group(member_count=1)
        solo["r0"].propose("solo", acknowledged=False)
        sim.run_until(0.05)
        assert applied["r0"] == ["solo"] and solo["r0"].commit_index == 1


class TestReplyRounds:
    """Only an AppendEntries with ``probe`` set draws a reply from a follower
    that accepts it: an entry to acknowledge, or a heartbeat."""

    def test_a_proposal_opens_exactly_one_round(self):
        sim, _, nodes, _ = build_raft_group(member_count=3)
        sim.run_until(0.005)
        wire, _ = tap(nodes)
        leader = nodes["r0"]
        leader.propose("cmd")
        sim.run_until(0.015)
        assert leader.commit_index == 1
        # The entry's round drew one reply per follower; the notice drew none.
        assert sum(is_notice(m) for _, m in wire) == 2
        assert sum(isinstance(m, AppendEntriesReply) for _, m in wire) == 2

    def test_a_heartbeat_round_draws_one_reply_per_follower(self):
        sim, _, nodes, _ = build_raft_group(member_count=5)
        sim.run_until(0.005)
        wire, _ = tap(nodes)
        sim.run_until(0.025)  # the heartbeat at 0.02
        heartbeats = [m for _, m in wire if isinstance(m, AppendEntries)]
        assert len(heartbeats) == 4 and all(m.probe and not m.entries for m in heartbeats)
        replies = [m for receiver, m in wire if isinstance(m, AppendEntriesReply)]
        assert sorted(m.follower_id for m in replies) == ["r1", "r2", "r3", "r4"]
        assert all(m.success for m in replies)


class _Outbox:
    """Stands in for a node's transport: keeps what it sends."""

    def __init__(self):
        self.sent = []

    def send(self, dst, message, size_bytes=None):
        self.sent.append(message)


class _ReferenceFollower:
    """A follower's AppendEntries handling from ``RaftLog.matches`` +
    ``merge`` alone: the general path the in-step append must agree with."""

    def __init__(self):
        self.log = RaftLog()
        self.commit_index = 0
        self.last_applied = 0
        self.applied = []

    def on_append_entries(self, message, term):
        if not self.log.matches(message.prev_log_index, message.prev_log_term):
            match_index = min(self.log.last_index, message.prev_log_index - 1)
            return (term, "f", False, match_index)
        for entry in self.log.merge(message.prev_log_index, message.entries):
            if not entry.acknowledged:
                self.applied.append(entry)
        if message.leader_commit > self.commit_index:
            self.commit_index = min(message.leader_commit, self.log.last_index)
            while self.last_applied < self.commit_index:
                self.last_applied += 1
                entry = self.log.entry(self.last_applied)
                if entry.acknowledged:
                    self.applied.append(entry)
        if not message.probe:
            return None
        return (term, "f", True, message.prev_log_index + len(message.entries))


#: How the next AppendEntries relates to the follower's log.
_KINDS = ("in-step", "overlap", "conflict", "gap", "stale-prev-term", "duplicate")


class TestInStepAppendMatchesMerge:
    """The follower's in-step append (``prev_log_index`` at its last index,
    ``prev_log_term`` matching) extends the log directly; every outcome —
    log, applied sequence, reply — must equal the general path's."""

    TERM = 3

    @staticmethod
    def follower():
        sim = Simulator(seed=3)
        network = Network(sim.loop)
        network.add_switch("sw")
        for name in ("l", "f"):
            network.add_host(name)
            network.add_link(name, "sw", 2e-5, 1e9)
        applied = []
        node = RaftNode(SimRuntime(sim, network, network.hosts["f"]), "g", ["l", "f"],
                        apply=applied.append, config=RaftConfig(initial_leader="l"))
        node.transport = _Outbox()
        return node, applied

    @staticmethod
    def next_message(data, reference, sent, commands):
        log = reference.log
        last = log.last_index
        kind = data.draw(st.sampled_from(_KINDS if sent else _KINDS[:-1]))
        if kind == "duplicate":
            return data.draw(st.sampled_from(sent))
        if kind == "gap":
            prev = last + data.draw(st.integers(1, 2))
            prev_term = data.draw(st.integers(0, TestInStepAppendMatchesMerge.TERM))
        else:
            prev = last if kind in ("in-step", "stale-prev-term") else data.draw(st.integers(0, last))
            prev_term = log.term_at(prev)
            if kind == "stale-prev-term":
                if prev == 0:
                    prev, prev_term = 1, 1  # nothing to match yet: a gap at index 1
                else:
                    prev_term += data.draw(st.integers(1, 2))
        start = prev + 1
        entries = []
        if kind == "overlap":  # copies of entries the log already holds, then new ones
            entries = [log.entry(index) for index in range(start, last + 1)]
        for _ in range(data.draw(st.integers(0 if entries else 1, 3))):
            index = start + len(entries)
            if kind == "conflict" and index <= last:
                term = log.term_at(index) + 1
            else:  # terms never fall along a log
                term = max(entries[-1].term if entries else log.term_at(min(prev, last)), 1)
            entries.append(LogEntry(term, index, next(commands), data.draw(st.booleans())))
        leader_commit = data.draw(st.integers(0, start + len(entries)))
        probe = data.draw(st.sampled_from((False, False, True)))
        return AppendEntries("g", TestInStepAppendMatchesMerge.TERM, "l", prev, prev_term,
                             tuple(entries), leader_commit, probe)

    @settings(max_examples=60, derandomize=True, deadline=None, database=None)
    @given(st.data())
    def test_same_log_applied_sequence_and_replies(self, data):
        node, applied = self.follower()
        reference = _ReferenceFollower()
        commands = itertools.count()
        sent = []
        for _ in range(data.draw(st.integers(1, 12))):
            message = self.next_message(data, reference, sent, commands)
            sent.append(message)
            node.transport.sent.clear()
            node.on_message("l", message)
            expected = reference.on_append_entries(message, self.TERM)
            replies = [(r.term, r.follower_id, r.success, r.match_index)
                       for r in node.transport.sent]
            assert replies == ([] if expected is None else [expected])
            assert node.log.entries_from(1) == reference.log.entries_from(1)
            assert applied == reference.applied
            assert (node.commit_index, node.last_applied) == (
                reference.commit_index, reference.last_applied)
