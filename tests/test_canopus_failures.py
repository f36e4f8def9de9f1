"""Failure-injection tests: node crashes, membership updates, stalls."""

import pytest

from repro.canopus.messages import MembershipUpdate, Proposal, ProposalRequest
from repro.raft.messages import AppendEntries
from repro.runtime.messages import NOT_IN_VIEW
from repro.verify.agreement import check_agreement, check_cycle_agreement
from tests.helpers import build_canopus_on_sim, fast_config, read, step_until, write
from tests.test_raft import is_notice


class TestSingleNodeFailure:
    def test_consensus_continues_after_one_node_crashes(self):
        config = fast_config(heartbeat_interval_s=0.02)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        # Commit something with everyone alive first.
        protocol.nodes["n0-0"].submit(write("before", "1"))
        sim.run_until(1.0)
        protocol.crash("n1-2")
        sim.run_until(2.0)  # let the failure detector fire
        protocol.nodes["n0-0"].submit(write("after", "2"))
        sim.run_until(4.0)
        survivors = {nid: node for nid, node in protocol.nodes.items() if nid != "n1-2"}
        for node in survivors.values():
            keys = [r.key for r in node.committed_requests()]
            assert keys == ["before", "after"]

    def test_failed_peer_is_removed_from_live_view(self):
        config = fast_config(heartbeat_interval_s=0.02)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        protocol.nodes["n0-0"].submit(write("warmup", "x"))
        sim.run_until(1.0)
        protocol.crash("n1-2")
        sim.run_until(2.0)
        protocol.nodes["n0-0"].submit(write("post", "y"))
        sim.run_until(4.0)
        for peer_id in ("n1-0", "n1-1"):
            assert "n1-2" not in protocol.nodes[peer_id].live_members

    def test_membership_update_propagates_to_all_emulation_tables(self):
        config = fast_config(heartbeat_interval_s=0.02)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        protocol.nodes["n0-0"].submit(write("warmup", "x"))
        sim.run_until(1.0)
        protocol.crash("n1-2")
        sim.run_until(2.0)
        # Two more cycles so the membership change is carried and applied.
        protocol.nodes["n0-0"].submit(write("carry", "y"))
        sim.run_until(3.5)
        protocol.nodes["n2-0"].submit(write("settle", "z"))
        sim.run_until(5.0)
        applied_anywhere = any(
            MembershipUpdate(node_id="n1-2", super_leaf="rack-1") in node.membership.applied
            for node in protocol.nodes.values()
            if node.node_id != "n1-2"
        )
        assert applied_anywhere
        # Every node that applied the update no longer lists n1-2 as an emulator.
        for node in protocol.nodes.values():
            if node.node_id == "n1-2":
                continue
            if any(update.node_id == "n1-2" for update in node.membership.applied):
                assert "n1-2" not in node.emulation_table.emulators("1")

    def test_crashed_node_does_not_commit_new_requests(self):
        config = fast_config(heartbeat_interval_s=0.02)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        protocol.nodes["n0-0"].submit(write("before", "1"))
        sim.run_until(1.0)
        protocol.crash("n2-2")
        protocol.nodes["n0-0"].submit(write("after", "2"))
        sim.run_until(3.0)
        dead_keys = [r.key for r in protocol.nodes["n2-2"].committed_requests()]
        assert "after" not in dead_keys


class TestRepresentativeFailure:
    def test_surviving_representative_still_fetches_remote_state(self):
        """Redundant fetching (§4.5): kill one of the two representatives."""
        config = fast_config(heartbeat_interval_s=0.02, redundant_fetches=2)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        protocol.nodes["n0-0"].submit(write("warmup", "x"))
        sim.run_until(1.0)
        protocol.crash("n0-0")  # n0-0 is a representative of rack-0
        sim.run_until(2.0)
        protocol.nodes["n0-2"].submit(write("after-rep-crash", "y"))
        sim.run_until(5.0)
        for node_id in ("n0-1", "n0-2"):
            keys = [r.key for r in protocol.nodes[node_id].committed_requests()]
            assert "after-rep-crash" in keys


class TestSuperLeafFailure:
    def test_consensus_stalls_when_a_whole_super_leaf_fails(self):
        """If every node of a super-leaf dies, live nodes stall (§6) rather
        than returning a result."""
        config = fast_config(heartbeat_interval_s=0.02, fetch_timeout_s=0.1)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        protocol.nodes["n0-0"].submit(write("before", "1"))
        sim.run_until(1.0)
        committed_before = protocol.nodes["n0-0"].last_committed_cycle
        for node_id in ("n1-0", "n1-1", "n1-2"):
            protocol.crash(node_id)
        protocol.nodes["n0-0"].submit(write("stalled-write", "2"))
        sim.run_until(4.0)
        for node_id, node in protocol.nodes.items():
            if node_id.startswith("n1-"):
                continue
            keys = [r.key for r in node.committed_requests()]
            assert "stalled-write" not in keys
        # No survivor committed anything beyond what was already committed
        # plus at most the cycle that was in flight before the crash.
        assert protocol.nodes["n0-0"].last_committed_cycle <= committed_before + 1

    def test_agreement_holds_even_while_stalled(self):
        config = fast_config(heartbeat_interval_s=0.02, fetch_timeout_s=0.1)
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        protocol.nodes["n0-0"].submit(write("before", "1"))
        sim.run_until(1.0)
        for node_id in ("n2-0", "n2-1", "n2-2"):
            protocol.crash(node_id)
        protocol.nodes["n0-1"].submit(write("maybe", "2"))
        sim.run_until(3.0)
        orders = {
            node_id: node.committed_order()
            for node_id, node in protocol.nodes.items()
            if not node_id.startswith("n2-")
        }
        ok, message = check_agreement(orders)
        assert ok, message


def _in_flight(node):
    return node.cycles[node.last_started_cycle]


def holds_fetch(round_number):
    """The node has asked a remote emulator, has not heard back and is in
    ``round_number``: requests leave at cycle start, so the wait spans
    round 1 (the super-leaf's proposals still in flight) and round 2."""

    def moment(node):
        state = _in_flight(node)
        return (
            state.current_round == round_number
            and not state.completed
            and any(not fetch.satisfied for fetch in state.fetches.values())
        )

    moment.__name__ = f"holds_fetch_in_round_{round_number}"
    return moment


def waits_on_peers(node):
    """The node is in round 2 of a cycle in which it has no fetch duty."""
    state = _in_flight(node)
    return state.current_round == 2 and not state.completed and not state.fetches


class TestCrashUnderLoad:
    """A crash in the middle of a cycle, with every node kept busy.

    The tests above crash a node between cycles.  Under steady load the
    victim dies holding an in-flight fetch, and its super-leaf must re-plan
    that fetch instead of waiting for it forever while the other
    super-leaves run out of the state-retention window.  The fetch is
    issued at cycle start, so the victim may die before its super-leaf has
    finished round 1 — with its own round-1 proposal still unreplicated —
    or while round 2 waits for the answer.
    """

    LOAD_UNTIL_S = 3.0
    WRITE_EVERY_S = 0.0005

    @pytest.mark.parametrize(
        "victim, moment",
        [(victim, holds_fetch(round_number)) for victim in ("n0-0", "n1-0", "n2-0") for round_number in (1, 2)]
        + [("n0-2", waits_on_peers)],
    )
    def test_survivors_keep_committing(self, victim, moment):
        config = fast_config()
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        survivors = [node for node_id, node in protocol.nodes.items() if node_id != victim]

        def submit(index: int) -> None:
            survivors[index % len(survivors)].submit(write(f"k{index}", "v"))

        writes = int(self.LOAD_UNTIL_S / self.WRITE_EVERY_S)
        for index in range(writes):
            sim.schedule(index * self.WRITE_EVERY_S, lambda index=index: submit(index))

        sim.run_until(0.5)
        while not moment(protocol.nodes[victim]):
            assert sim.now < 0.6, f"{victim} never reached the crash moment"
            sim.run_until(sim.now + 0.00002)
        protocol.crash(victim)
        sim.run_until(self.LOAD_UNTIL_S - 0.5)
        midway = {node.node_id: node.last_committed_cycle for node in survivors}
        sim.run_until(self.LOAD_UNTIL_S + 0.5)

        for node in survivors:
            assert node.last_committed_cycle > midway[node.node_id], f"{node.node_id} stalled"
            committed = {request.key for request in node.committed_requests()}
            assert all(f"k{index}" in committed for index in range(writes)), node.node_id
        ok, message = check_agreement({node.node_id: node.committed_order() for node in survivors})
        assert ok, message

    def test_failure_noticed_in_round_1_replans_the_requests_already_sent(self):
        """The detector can fire while a cycle is still collecting round-1
        proposals.  Round 2's requests went out at cycle start under the old
        view, so the survivors must take over the victim's share then and
        there: nothing re-plans round 2 when round 1 later completes."""
        config = fast_config()
        sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=config)
        rack = [protocol.nodes[node_id] for node_id in ("n0-0", "n0-1", "n0-2")]
        for node in rack:
            node.submit(write(f"from-{node.node_id}", "v"))
        assert all(node.cycles[1].current_round == 1 for node in rack)
        victim = next(node for node in rack if node.cycles[1].fetches)
        survivors = [node for node in rack if node is not victim]
        protocol.crash(victim.node_id)
        for node in survivors:
            node._on_peer_failure(victim.node_id)

        assert all(node.cycles[1].current_round == 1 for node in survivors)
        required = set(protocol.lot.required_vnodes(victim.node_id, 2))
        asked = set().union(*(node.cycles[1].fetches for node in survivors))
        assert asked == required
        sim.run_until(1.0)
        for node in protocol.nodes.values():
            if node is not victim:
                committed = {request.key for request in node.committed_requests()}
                assert {f"from-{survivor.node_id}" for survivor in survivors} <= committed, node.node_id



def hold_at(nodes, hold):
    """Route every delivery to ``nodes`` through ``hold(receiver, message)``;
    a message it claims never arrives (the sender is about to die)."""
    for node in nodes:

        def handler(sender, message, node=node):
            if not hold(node.node_id, message):
                node.on_message(sender, message)

        node.runtime.set_handler(handler)


def entry_from(message, origin, wanted):
    """``message`` ships a broadcast entry of ``origin`` whose payload passes ``wanted``."""
    return (
        isinstance(message, AppendEntries)
        and message.leader_id == origin
        and any(isinstance(e.command, Proposal) and wanted(e.command) for e in message.entries)
    )


def five_per_rack(**overrides):
    """Five members a rack: one peer of four is a strict minority.  The
    fetch retry timer is out of reach, so it cannot be what rescues a test."""
    config = fast_config(fetch_timeout_s=30.0, **overrides)
    sim, _, protocol, _ = build_canopus_on_sim(nodes_per_rack=5, racks=3, config=config)
    rack = [protocol.nodes[f"n0-{index}"] for index in range(5)]
    return sim, protocol, rack


def assert_survivors_agree(protocol, victim):
    survivors = [node for node in protocol.nodes.values() if node is not victim]
    for node in survivors:
        assert node.last_committed_cycle >= 1, f"{node.node_id} stalled in cycle 1"
    # Cycle by cycle, not as a flat order: a cycle that committed empty at
    # one node and with requests at another is a prefix of it, not equal.
    ok, message = check_cycle_agreement({
        node.node_id: [(c.cycle_id, [r.request_id for r in c.requests]) for c in node.commit_log]
        for node in survivors
    })
    assert ok, message
    assert sum(node.stats["fetch_retries"] for node in survivors) == 0
    return survivors


class TestRepresentativeDiesMidSend:
    """A fetched vnode state is passed on without agreement: one copy per
    peer, acted on at arrival.  A representative that dies half-way through
    leaves a minority holding a state the rest of the super-leaf waits for,
    and nobody is going to replicate it for them (the holders are too few to
    elect themselves in the dead node's group).  Whoever the new view hands
    the fetch to must send it — again, if it is one of the holders."""

    #: The detector excludes the victim 80-100 ms after the crash; its
    #: broadcast group cannot elect anyone for 300 ms.
    SETTLED_S = 0.25

    @pytest.mark.parametrize("pipelining", [False, True], ids=["batched", "pipelined"])
    @pytest.mark.parametrize("inheritor_holds", [True, False], ids=["holder", "non-holder"])
    def test_survivors_finish_the_cycle(self, inheritor_holds, pipelining):
        sim, protocol, rack = five_per_rack(pipelining=pipelining)
        lot, live = protocol.lot, {node.node_id for node in rack}
        (victim,) = [node for node in rack if node.node_id == rack[0].representatives(1)[0]]
        (vnode,) = [v for v, fetchers in lot.fetch_plan(victim.node_id, 2, 1, live, 2, 1).items()
                    if victim.node_id in fetchers]
        survivors = [node for node in rack if node is not victim]
        after = live - {victim.node_id}
        (inheritor,) = [node for node in survivors
                        if node.node_id in lot.fetch_plan(node.node_id, 2, 1, after, 2, 1)[vnode]]
        lucky = inheritor if inheritor_holds else next(n for n in survivors if n is not inheritor)

        hold_at(survivors, lambda receiver, message: receiver != lucky.node_id and entry_from(
            message, victim.node_id, lambda p: p.round_number >= 2 and p.vnode_id == vnode))
        rack[1].submit(write("k", "v"))
        while not (1 in lucky.cycles and lucky.cycles[1].has_vnode_state(vnode)):
            assert sim.loop.step() and sim.now < 0.01
        protocol.crash(victim.node_id)
        crashed_at = sim.now
        holders = [node for node in survivors if node.cycles[1].has_vnode_state(vnode)]
        assert holders == [lucky]

        sim.run_until(crashed_at + self.SETTLED_S)
        assert_survivors_agree(protocol, victim)
        duty = inheritor.cycles[1].fetches[vnode]
        # A holder answers from what it has; a non-holder asks an emulator.
        assert duty.satisfied and (duty.emulator == "") == inheritor_holds


class TestVoidProposerDiesMidSend:
    def test_members_that_counted_the_void_copy_and_members_that_did_not_agree(self):
        sim, protocol, rack = five_per_rack()
        victim, lucky = rack[4], rack[:2]
        survivors = rack[:4]
        hold_at(survivors, lambda receiver, message: receiver not in ("n0-0", "n0-1") and entry_from(
            message, victim.node_id, lambda p: p.round_number == 1))
        for node in rack[:3]:
            node.submit(write(f"from-{node.node_id}", "v"))
        while not all(victim.node_id in node.cycles[1].round1_proposals for node in lucky):
            assert sim.loop.step() and sim.now < 0.01
        assert victim.cycles[1].round1_proposals[victim.node_id].is_void()
        protocol.crash(victim.node_id)
        counted = [victim.node_id in node.cycles[1].round1_proposals for node in survivors]
        assert counted == [True, True, False, False]

        sim.run_until(sim.now + 0.25)
        assert_survivors_agree(protocol, victim)
        states = [node.cycles[1].vnode_state(node.parent_vnode) for node in survivors]
        assert all((s.requests, s.proposal_number) == (states[0].requests, states[0].proposal_number)
                   for s in states)
        assert len(states[0].requests) == 3


class TestProposerDiesBetweenNotices:
    """Round 1 keeps the full exchange because delivering a proposal on
    first sight is unsafe; this pins the hazard that is left even so.  The
    proposer's entry reached a majority and it told only some peers so
    before dying.  Those deliver the proposal and count it; the others hold
    the entry undelivered, and the failure detector (4 heartbeats) excludes
    the proposer long before its group's election (300-600 ms) could
    finish the replication.  "A vnode state is the same at every emulator"
    — which passing states on without agreement leans on — needs the
    exclusion to wait for that election or for the holders' word."""

    @pytest.mark.xfail(
        strict=True,
        reason="pre-existing (fails at PR 15 too): n0-3 and n0-4 commit cycle 1 empty, everyone "
        "else with the dead proposer's write; see ROADMAP 'Canopus disagrees "
        "with itself on main'",
    )
    def test_survivors_agree_on_the_dead_proposers_requests(self):
        sim, protocol, rack = five_per_rack()
        victim, survivors = rack[0], rack[1:]
        told = rack[1:3]
        hold_at(survivors, lambda receiver, message: receiver in ("n0-3", "n0-4")
                and is_notice(message) and message.leader_id == victim.node_id)
        victim.submit(write("k", "v"))
        while not all(1 in node.cycles and victim.node_id in node.cycles[1].round1_proposals for node in told):
            assert sim.loop.step() and sim.now < 0.01
        protocol.crash(victim.node_id)
        sim.run_until(sim.now + 1.5)  # past the detector and past the election
        assert_survivors_agree(protocol, victim)


class TestLateMessageForPrunedCycle:
    """A proposal-request or a fetched state can reach a node after it has
    committed the cycle and pruned its state.  Such a message must not bring
    the cycle back: nothing would ever complete or prune it again, and
    after a peer failure it would re-plan its fetches and retry them for
    ever.  A committed cycle whose state is still kept is served as before."""

    def _settled(self):
        sim, _, protocol, _ = build_canopus_on_sim(config=fast_config(max_inflight_cycles=1))
        for index in range(12):
            protocol.nodes["n0-0"].submit(write(f"k{index}", "v"))
            sim.run_until(sim.now + 0.03)
        sim.run_until(sim.now + 0.1)
        node = protocol.nodes["n0-0"]
        assert node.last_committed_cycle == 12
        kept = set(node.cycles)
        assert kept == {9, 10, 11, 12}  # 4 x max_inflight_cycles
        return sim, protocol, node, kept

    def test_pruned_cycle_stays_pruned_and_fetches_nothing(self):
        sim, protocol, node, kept = self._settled()
        node.on_message("n1-0", ProposalRequest(cycle_id=1, vnode_id="1.1", requester="n1-0"))
        node.on_message("n1-0", Proposal(
            cycle_id=2, round_number=2, vnode_id="1.2", sender="n1-0", proposal_number=1,
        ))
        assert set(node.cycles) == kept

        fetches = []

        def record_fetches(receiver, message):
            if isinstance(message, ProposalRequest) and message.requester == node.node_id:
                fetches.append(message.cycle_id)
            return False  # nothing is held

        hold_at([peer for peer in protocol.nodes.values() if peer is not node], record_fetches)
        protocol.crash("n0-1")  # n0-0 inherits n0-1's round-2 fetch of vnode 1.2
        sim.run_until(sim.now + 1.5)
        assert "n0-1" not in node.live_members
        assert fetches == [] and node.stats["fetch_retries"] == 0
        assert set(node.cycles) <= kept

    def test_kept_committed_cycle_is_still_served(self):
        sim, protocol, node, kept = self._settled()
        served = node.stats["proposal_requests_served"]
        node.on_message("n1-0", ProposalRequest(cycle_id=11, vnode_id="1.1", requester="n1-0"))
        assert node.stats["proposal_requests_served"] == served + 1
        assert set(node.cycles) == kept


class TestReadAtStalledNode:
    """A node that freezes for longer than the failure timeout is excluded
    by its peers without knowing it, and cycles it never proposed in commit.
    Its in-flight cycle then bounds nothing, and nor does the next one it
    starts — it may be any number of cycles behind (``WAKES_UP_BEHIND`` in
    ``test_canopus_read_faults.py``): a read there is kept until the node is
    in view again, and a node excluded for good, which never is, refuses it
    after a failure timeout so that the client asks elsewhere."""

    @staticmethod
    def _freeze(node):
        """Stop ``node`` reacting: arrivals queue up, no heartbeats go out."""
        inbox = []
        node.runtime.set_handler(lambda sender, message: inbox.append((sender, message)))
        node.failure_detector.stop()
        return inbox

    @staticmethod
    def _thaw(node):
        node.runtime.set_handler(node.on_message)
        node.failure_detector.start()

    @staticmethod
    def _reply_to_read_at(sim, victim, replies, inbox, read_when):
        """Replay ``inbox`` at the thawed ``victim``; read k once ``read_when()``."""
        request = read("k")
        for sender, message in inbox:
            if request is not None and read_when():
                victim.submit(request)
                request_id, request = request.request_id, None
            victim.on_message(sender, message)
        if request is not None:
            assert read_when()
            victim.submit(request)
            request_id = request.request_id
        submitted_at = sim.now
        sim.run_until(sim.now + 1.0)
        (reply,) = [reply for reply in replies if reply.request_id == request_id]
        assert reply.completed_at <= submitted_at + victim.config.failure_timeout_s() + 1e-9
        return reply

    def _cluster_with_k_old(self):
        sim, _, protocol, replies = build_canopus_on_sim(nodes_per_rack=3, racks=3, config=fast_config())
        protocol.nodes["n0-0"].submit(write("k", "old"))
        sim.run_until(0.05)
        assert all(node.last_committed_cycle == 1 for node in protocol.nodes.values())
        return sim, protocol, replies

    def _ack_k_new(self, sim, protocol, replies):
        request = write("k", "new")
        protocol.nodes["n0-1"].submit(request)
        sim.run_until(sim.now + 0.3)
        (ack,) = [reply for reply in replies if reply.request_id == request.request_id]
        return ack.committed_cycle

    def test_frozen_mid_cycle(self):
        sim, protocol, replies = self._cluster_with_k_old()
        victim = protocol.nodes["n2-1"]
        protocol.nodes["n0-0"].submit(write("x", "1"))
        step_until(sim, lambda: victim.last_started_cycle >= 2,
                   sim.now + 2 * victim.config.cycle_interval_s, "the victim starts cycle 2")
        inbox = self._freeze(victim)
        # Cycle 2 has the victim's proposal; cycle 3 waits for it, times the
        # victim out and commits without it.
        sim.run_until(sim.now + 0.03)
        assert self._ack_k_new(sim, protocol, replies) == 3
        assert (victim.last_started_cycle, victim.last_committed_cycle) == (2, 1)

        self._thaw(victim)
        assert not victim.failure_detector.in_view()
        reply = self._reply_to_read_at(sim, victim, replies, inbox, read_when=lambda: True)
        # Cycle 2, which it goes on to commit alone, has "old".
        assert victim.last_committed_cycle >= 2
        assert (reply.error, reply.value) == (NOT_IN_VIEW, None)
        assert victim._reads_out_of_view == {}

    def test_frozen_while_idle_then_self_synchronised(self):
        """The in-flight cycle was started after the thaw, by a queued
        message: its age says nothing about whether the node is in view.

        Which message starts it, and which cycle, is the broadcast's to
        decide.  Frozen for 0.6 s, the victim's followers in its peers'
        broadcast groups time out (0.3-0.6 s) and move to a later term, so
        on the thaw they reject the queued cycle-2 appends; the first queued
        message that starts a cycle is a cycle-3 fetch, which takes the
        victim from started 1 / committed 1 to 3 / 1.  So the read waits for
        any cycle in flight beyond the last commit, not for cycle 2."""
        sim, protocol, replies = self._cluster_with_k_old()
        victim = protocol.nodes["n2-1"]
        inbox = self._freeze(victim)
        protocol.nodes["n0-0"].submit(write("x", "1"))
        sim.run_until(sim.now + 0.3)
        assert "n2-1" not in protocol.nodes["n2-0"].live_members
        assert self._ack_k_new(sim, protocol, replies) == 3
        assert victim.last_started_cycle == 1

        self._thaw(victim)
        reply = self._reply_to_read_at(
            sim, victim, replies, inbox,
            read_when=lambda: victim.last_started_cycle > victim.last_committed_cycle == 1,
        )
        assert victim.last_committed_cycle >= 2
        assert (reply.error, reply.value) == (NOT_IN_VIEW, None)

    def test_short_freeze_keeps_the_in_flight_release(self):
        """Inside the lease nobody can have excluded the node."""
        sim, protocol, replies = self._cluster_with_k_old()
        victim = protocol.nodes["n2-1"]
        protocol.nodes["n0-0"].submit(write("x", "1"))
        step_until(sim, lambda: victim.last_started_cycle >= 2,
                   sim.now + 2 * victim.config.cycle_interval_s, "the victim starts cycle 2")
        inbox = self._freeze(victim)
        sim.run_until(sim.now + victim.config.heartbeat_interval_s)
        self._thaw(victim)
        assert victim.failure_detector.in_view()
        request = read("k")
        victim.submit(request)
        for sender, message in inbox:
            victim.on_message(sender, message)
        sim.run_until(sim.now + 0.5)
        (reply,) = [reply for reply in replies if reply.request_id == request.request_id]
        assert reply.committed_cycle == 2
        assert all("n2-1" in protocol.nodes[peer].live_members for peer in ("n2-0", "n2-2"))


class TestWriteBesideANodeFrozenForGood:
    """A peer frozen for good must cost its super-leaf a member, not its
    liveness: the other two members are a majority of every group."""

    def test_a_write_beside_the_frozen_node_is_acknowledged(self):
        sim, protocol, replies = TestReadAtStalledNode()._cluster_with_k_old()
        TestReadAtStalledNode._freeze(protocol.nodes["n2-1"])  # never thawed
        sim.run_until(0.65)
        request = write("k", "new")
        protocol.nodes["n2-0"].submit(request)
        sim.run_until(sim.now + 1.0)
        assert any(reply.request_id == request.request_id for reply in replies)
