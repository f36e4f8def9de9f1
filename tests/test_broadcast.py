"""Tests for the intra-super-leaf reliable broadcast implementations."""

import pytest

from repro.broadcast import make_broadcast
from repro.broadcast.ideal import IdealBroadcast
from repro.broadcast.raft_broadcast import RaftBroadcast
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network


def build_group(mode, member_count=3, seed=11, first_sight=None):
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
        runtime = SimRuntime(sim, network, network.hosts[name])
        broadcast = make_broadcast(
            mode, runtime, names, lambda origin, payload, n=name: delivered[n].append((origin, payload)),
            first_sight,
        )
        runtime.set_handler(broadcast.on_message)  # only broadcast traffic flows here
        broadcasts[name] = broadcast
    return sim, network, broadcasts, delivered


class TestFactory:
    def test_factory_returns_requested_implementation(self):
        _, _, ideal, _ = build_group("ideal")
        _, _, raft, _ = build_group("raft")
        assert isinstance(ideal["m0"], IdealBroadcast)
        assert isinstance(raft["m0"], RaftBroadcast)

    def test_unknown_mode_rejected(self):
        sim, _, groups, _ = build_group("ideal")
        with pytest.raises(ValueError):
            make_broadcast("bogus", groups["m0"].runtime, ["m0"], lambda o, p: None)


@pytest.mark.parametrize("mode", ["ideal", "raft"])
class TestDeliveryGuarantees:
    def test_payload_delivered_to_every_member_including_sender(self, mode):
        sim, _, broadcasts, delivered = build_group(mode)
        broadcasts["m0"].broadcast("hello")
        sim.run_until(0.5)
        for name, log in delivered.items():
            assert ("m0", "hello") in log, f"{name} missed the broadcast"

    def test_origin_order_preserved(self, mode):
        sim, _, broadcasts, delivered = build_group(mode)
        for i in range(5):
            broadcasts["m1"].broadcast(f"p{i}")
        sim.run_until(0.5)
        for log in delivered.values():
            payloads = [payload for origin, payload in log if origin == "m1"]
            assert payloads == [f"p{i}" for i in range(5)]

    def test_concurrent_broadcasts_from_all_members_all_delivered(self, mode):
        sim, _, broadcasts, delivered = build_group(mode)
        for name, broadcast in broadcasts.items():
            broadcast.broadcast(f"from-{name}")
        sim.run_until(0.5)
        expected = {f"from-m{i}" for i in range(3)}
        for log in delivered.values():
            assert {payload for _, payload in log} == expected

    def test_counters_track_activity(self, mode):
        sim, _, broadcasts, delivered = build_group(mode)
        broadcasts["m0"].broadcast("x")
        sim.run_until(0.5)
        assert broadcasts["m0"].broadcasts_sent == 1
        assert broadcasts["m1"].payloads_delivered >= 1


@pytest.mark.parametrize("mode", ["ideal", "raft"])
class TestAgreedServiceLevel:
    """``broadcast(payload, agreed=True)``: same deliveries, no agreement paid for."""

    def test_delivered_exactly_once_everywhere_and_at_the_sender_at_once(self, mode):
        sim, _, broadcasts, delivered = build_group(mode, member_count=5)
        broadcasts["m0"].broadcast("state", agreed=True)
        assert delivered["m0"] == [("m0", "state")]
        # Long enough for the Raft groups' heartbeats to commit the entry.
        sim.run_until(0.5)
        assert all(log == [("m0", "state")] for log in delivered.values())
        assert all(b.payloads_delivered == 1 for b in broadcasts.values())

    def test_both_levels_from_every_member(self, mode):
        sim, _, broadcasts, delivered = build_group(mode, member_count=5)
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
        sim, network, broadcasts, delivered = build_group("raft", member_count, first_sight=seen.append)
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
        sim, network, broadcasts, delivered = build_group("raft", member_count=3)
        network.hosts["m2"].fail()
        for broadcast in broadcasts.values():
            broadcast.remove_peer("m2")
        broadcasts["m0"].broadcast("after-crash")
        sim.run_until(0.5)
        assert ("m0", "after-crash") in delivered["m0"]
        assert ("m0", "after-crash") in delivered["m1"]

    def test_remove_peer_shrinks_groups(self):
        _, _, broadcasts, _ = build_group("raft", member_count=3)
        broadcasts["m0"].remove_peer("m2")
        assert "m2" not in broadcasts["m0"].peers
        for group in broadcasts["m0"].groups.values():
            assert "m2" not in group.members

    def test_add_peer_joins_future_groups(self):
        sim, network, broadcasts, delivered = build_group("raft", member_count=3)
        # Simulate a rejoin: m2 was removed, then added back.
        broadcasts["m0"].remove_peer("m2")
        broadcasts["m0"].add_peer("m2")
        assert "m2" in broadcasts["m0"].peers
        assert "m2" in broadcasts["m0"].groups

    def test_stop_cancels_group_timers(self):
        sim, _, broadcasts, _ = build_group("raft", member_count=3)
        broadcasts["m0"].stop()
        for group in broadcasts["m0"].groups.values():
            assert group.stopped


class TestIdealBroadcastPeers:
    def test_remove_peer_stops_sending_to_it(self):
        sim, _, broadcasts, delivered = build_group("ideal", member_count=3)
        broadcasts["m0"].remove_peer("m2")
        broadcasts["m0"].broadcast("pruned")
        sim.run_until(0.2)
        assert ("m0", "pruned") in delivered["m1"]
        assert ("m0", "pruned") not in delivered["m2"]
