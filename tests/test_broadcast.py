"""Tests for the intra-super-leaf reliable broadcast."""

from repro.broadcast.raft_broadcast import RaftBroadcast, _ForwardedBroadcast
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network


def build_group(member_count=3, seed=11, first_sight=None):
    sim = Simulator(seed=seed)
    network = Network(sim.loop)
    names = [f"m{i}" for i in range(member_count)]
    network.add_switch("tor")
    for name in names:
        network.add_host(name)
        network.add_link(name, "tor", 2e-5, 1e9)
    delivered = {name: [] for name in names}
    broadcasts = {}
    for name in names:
        runtime = SimRuntime(sim, network.hosts[name])
        broadcast = RaftBroadcast(
            runtime, names, lambda origin, payload, n=name: delivered[n].append((origin, payload)),
            first_sight,
        )
        runtime.set_handler(broadcast.on_message)  # only broadcast traffic flows here
        broadcasts[name] = broadcast
    return sim, network, broadcasts, delivered


class TestDeliveryGuarantees:
    def test_payload_delivered_to_every_member_including_sender(self):
        sim, _, broadcasts, delivered = build_group()
        broadcasts["m0"].broadcast("hello")
        sim.run_until(0.5)
        for name, log in delivered.items():
            assert ("m0", "hello") in log, f"{name} missed the broadcast"

    def test_origin_order_preserved(self):
        sim, _, broadcasts, delivered = build_group()
        for i in range(5):
            broadcasts["m1"].broadcast(f"p{i}")
        sim.run_until(0.5)
        for log in delivered.values():
            payloads = [payload for origin, payload in log if origin == "m1"]
            assert payloads == [f"p{i}" for i in range(5)]

    def test_concurrent_broadcasts_from_all_members_all_delivered(self):
        sim, _, broadcasts, delivered = build_group()
        for name, broadcast in broadcasts.items():
            broadcast.broadcast(f"from-{name}")
        sim.run_until(0.5)
        expected = {f"from-m{i}" for i in range(3)}
        for log in delivered.values():
            assert {payload for _, payload in log} == expected

    def test_counters_track_activity(self):
        sim, _, broadcasts, delivered = build_group()
        broadcasts["m0"].broadcast("x")
        sim.run_until(0.5)
        assert broadcasts["m0"].broadcasts_sent == 1
        assert broadcasts["m1"].payloads_delivered >= 1


class TestAgreedServiceLevel:
    """``broadcast(payload, agreed=True)``: same deliveries, no agreement paid for."""

    def test_delivered_exactly_once_everywhere_and_at_the_sender_at_once(self):
        sim, _, broadcasts, delivered = build_group(member_count=5)
        broadcasts["m0"].broadcast("state", agreed=True)
        assert delivered["m0"] == [("m0", "state")]
        # Long enough for the Raft groups' heartbeats to commit the entry.
        sim.run_until(0.5)
        assert all(log == [("m0", "state")] for log in delivered.values())
        assert all(b.payloads_delivered == 1 for b in broadcasts.values())

    def test_both_levels_from_every_member(self):
        sim, _, broadcasts, delivered = build_group(member_count=5)
        for name, broadcast in broadcasts.items():
            broadcast.broadcast(f"proposal-{name}")
            broadcast.broadcast(f"state-{name}", agreed=True)
        sim.run_until(0.5)
        expected = sorted(f"{kind}-m{i}" for kind in ("proposal", "state") for i in range(5))
        for log in delivered.values():
            assert sorted(payload for _, payload in log) == expected


class TestRaftAgreedCost:
    def tapped_group(self, member_count=9):
        seen = []
        sim, network, broadcasts, delivered = build_group(member_count, first_sight=seen.append)
        wire = []
        for name, broadcast in broadcasts.items():
            def handler(sender, message, name=name, b=broadcast):
                wire.append((name, message))
                b.on_message(sender, message)
            broadcast.runtime.set_handler(handler)
        sim.run_until(0.005)  # every group's initial heartbeat round is over
        del wire[:], seen[:]
        return sim, broadcasts, delivered, wire, seen

    def test_nine_members_eight_messages_one_hop(self):
        sim, broadcasts, delivered, wire, seen = self.tapped_group()
        broadcasts["m0"].broadcast("state", agreed=True)
        sim.run_until(0.05)
        assert len(wire) == 8 and {receiver for receiver, _ in wire} == set(delivered) - {"m0"}
        assert all(log == [("m0", "state")] for log in delivered.values())
        assert seen == []  # arrival was delivery: nothing to hint at

    def test_first_sight_fires_only_for_payloads_held_until_commit(self):
        sim, broadcasts, delivered, wire, seen = self.tapped_group(member_count=3)
        broadcasts["m0"].broadcast("state", agreed=True)
        broadcasts["m0"].broadcast("proposal")
        sim.run_until(0.05)
        assert seen == ["proposal", "proposal"]  # once per follower
        # The unacknowledged entry arrived first and was delivered first.
        assert delivered["m1"] == delivered["m2"] == [("m0", "state"), ("m0", "proposal")]

    def test_a_member_that_does_not_lead_its_group_pays_the_full_exchange(self):
        """``agreed`` is a permission: the forwarded path ignores it."""
        sim, broadcasts, delivered, wire, seen = self.tapped_group(member_count=3)
        group = broadcasts["m0"].groups["m0"]
        group._step_down(group.current_term)
        group.leader_id = "m1"
        broadcasts["m1"].groups["m0"]._become_leader()
        sim.run_until(0.01)
        broadcasts["m0"].broadcast("state", agreed=True)
        assert delivered["m0"] == []
        sim.run_until(0.2)
        assert all(log == [("m0", "state")] for log in delivered.values())


class TestRaftBroadcastFailures:
    def test_broadcast_survives_one_member_crash(self):
        sim, network, broadcasts, delivered = build_group(member_count=3)
        network.hosts["m2"].fail()
        for broadcast in broadcasts.values():
            broadcast.remove_peer("m2")
        broadcasts["m0"].broadcast("after-crash")
        sim.run_until(0.5)
        assert ("m0", "after-crash") in delivered["m0"]
        assert ("m0", "after-crash") in delivered["m1"]

    def test_remove_peer_stops_sending_to_it(self):
        sim, _, broadcasts, delivered = build_group(member_count=3)
        broadcasts["m0"].remove_peer("m2")
        broadcasts["m0"].broadcast("pruned")
        sim.run_until(0.2)
        assert ("m0", "pruned") in delivered["m1"]
        assert ("m0", "pruned") not in delivered["m2"]

    def test_remove_peer_shrinks_groups(self):
        _, _, broadcasts, _ = build_group(member_count=3)
        broadcasts["m0"].remove_peer("m2")
        assert "m2" not in broadcasts["m0"].peers
        for group in broadcasts["m0"].groups.values():
            assert "m2" not in group.members

    def test_stop_cancels_group_timers(self):
        sim, _, broadcasts, _ = build_group(member_count=3)
        broadcasts["m0"].stop()
        for group in broadcasts["m0"].groups.values():
            assert group.stopped


class TestPayloadsWithoutALeaderAreHeld:
    """A payload whose group has no leader this member knows of waits for
    one instead of being dropped, and held payloads keep broadcast order."""

    @staticmethod
    def depose(broadcast, owner):
        """Move ``broadcast``'s view of ``owner``'s group to term 2, past its
        initial leader's, with no leader: what a RequestVote from a member
        that hears nothing does."""
        group = broadcast.groups[owner]
        group._step_down(2)
        assert not group.is_leader and group.leader_id is None
        return group

    def test_a_deposed_member_proposes_its_broadcast_once_re_elected(self):
        sim, _, broadcasts, delivered = build_group()
        own = self.depose(broadcasts["m0"], "m0")
        broadcasts["m0"].broadcast("p")
        sim.run_until(0.01)
        assert all(log == [] for log in delivered.values())
        own._start_election()
        sim.run_until(0.2)
        assert own.is_leader
        assert all(log == [("m0", "p")] for log in delivered.values())

    def test_a_deposed_member_forwards_its_broadcast_to_the_next_leader(self):
        sim, _, broadcasts, delivered = build_group()
        self.depose(broadcasts["m0"], "m0")
        broadcasts["m0"].broadcast("p")
        rival = self.depose(broadcasts["m1"], "m0")
        rival._start_election()  # before m0's timer: m1 leads m0's group
        sim.run_until(0.2)
        assert rival.is_leader and broadcasts["m0"].groups["m0"].leader_id == "m1"
        assert all(log == [("m0", "p")] for log in delivered.values())

    def test_a_forwarded_payload_waits_at_a_member_that_knows_no_leader(self):
        sim, _, broadcasts, delivered = build_group()
        receiver = self.depose(broadcasts["m2"], "m0")
        forward = _ForwardedBroadcast(receiver.group_id, "p")
        broadcasts["m2"].on_message("m0", forward)
        sim.run_until(0.01)
        assert all(log == [] for log in delivered.values())
        receiver._start_election()
        sim.run_until(0.2)
        assert receiver.is_leader
        assert all(log == [("m0", "p")] for log in delivered.values())

    def test_a_broadcast_made_while_payloads_are_held_is_queued_behind_them(self):
        sim, _, broadcasts, delivered = build_group()
        own = self.depose(broadcasts["m0"], "m0")
        broadcasts["m0"].broadcast("p0")
        broadcasts["m0"].broadcast("p1")
        own._become_leader()  # leads again, and nothing has released p0 and p1 yet
        broadcasts["m0"].broadcast("p2")
        sim.run_until(0.2)
        assert all(log == [("m0", "p0"), ("m0", "p1"), ("m0", "p2")] for log in delivered.values())

    def test_stop_drops_what_is_held(self):
        sim, _, broadcasts, delivered = build_group()
        self.depose(broadcasts["m0"], "m0")
        broadcasts["m0"].broadcast("p")
        broadcasts["m0"].stop()
        assert broadcasts["m0"]._held == {}

    def test_a_leader_that_left_the_super_leaf_is_not_forwarded_to(self):
        sim, network, broadcasts, delivered = build_group()
        own = self.depose(broadcasts["m0"], "m0")
        own.leader_id = "m2"  # m2 took over m0's group, then failed
        network.hosts["m2"].fail()
        for name in ("m0", "m1"):
            broadcasts[name].remove_peer("m2")
        sent = broadcasts["m0"].transport.messages_sent
        broadcasts["m0"].broadcast("p")
        assert broadcasts["m0"].transport.messages_sent == sent  # held, not sent to m2
        own._start_election()
        sim.run_until(0.2)
        assert delivered["m0"] == delivered["m1"] == [("m0", "p")]

    def test_a_forwarded_payload_is_passed_on_to_the_leader_the_receiver_knows(self):
        sim, _, broadcasts, delivered = build_group()
        group = broadcasts["m2"].groups["m0"]
        assert not group.is_leader and group.leader_id == "m0"
        broadcasts["m2"].on_message("m1", _ForwardedBroadcast(group.group_id, "p"))
        sim.run_until(0.05)
        assert all(log == [("m0", "p")] for log in delivered.values())

    def test_a_held_agreed_payload_forwarded_to_a_new_leader_pays_the_full_exchange(self):
        seen = []
        sim, _, broadcasts, delivered = build_group(first_sight=seen.append)
        self.depose(broadcasts["m0"], "m0")
        broadcasts["m0"].broadcast("state", agreed=True)
        assert delivered["m0"] == []  # not delivered at the sender at once: held
        rival = self.depose(broadcasts["m1"], "m0")
        rival._start_election()
        sim.run_until(0.2)
        assert all(log == [("m0", "state")] for log in delivered.values())
        assert "state" in seen  # an acknowledged entry: hinted before it committed

    def test_a_broadcast_made_by_a_delivery_during_a_release_queues_behind(self):
        """Releasing an agreed payload delivers it at the sender at once, and
        a delivery may broadcast again: that payload joins the queue."""
        sim, _, broadcasts, delivered = build_group()

        class EchoOnce(list):
            def append(self, item):
                super().append(item)
                if item == ("m0", "state"):
                    broadcasts["m0"].broadcast("echo")

        delivered["m0"] = EchoOnce()
        own = self.depose(broadcasts["m0"], "m0")
        broadcasts["m0"].broadcast("state", agreed=True)
        broadcasts["m0"].broadcast("after")
        own._start_election()
        sim.run_until(0.2)
        assert broadcasts["m0"]._held == {}
        log = [entry.command for entry in own.log.entries_from(1)]
        assert log == ["state", "after", "echo"]
        for got in delivered.values():
            assert sorted(payload for _, payload in got) == ["after", "echo", "state"]
