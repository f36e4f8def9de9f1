"""Tests for the failure detector and membership manager."""


from repro.canopus.lot import LeafOnlyTree
from repro.canopus.membership import FailureDetector, MembershipManager
from repro.canopus.messages import MembershipUpdate
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network


def build_detector_pair(heartbeat_interval=0.02, timeout=0.08, seed=19):
    sim = Simulator(seed=seed)
    network = Network(sim.loop)
    network.add_switch("sw")
    for name in ("a", "b"):
        network.add_host(name)
        network.add_link(name, "sw", 1e-5, 1e9)
    failures = {"a": [], "b": []}
    detectors = {}
    for name in ("a", "b"):
        runtime = SimRuntime(sim, network, network.hosts[name])
        peer = "b" if name == "a" else "a"
        detector = FailureDetector(
            runtime, [peer], heartbeat_interval, timeout, on_failure=failures[name].append
        )
        runtime.set_handler(lambda sender, msg, d=detector: d.on_message(sender, msg)
                            if d.handles(msg) else None)
        detectors[name] = detector
    return sim, network, detectors, failures


class TestFailureDetector:
    def test_no_failures_while_heartbeats_flow(self):
        sim, _, detectors, failures = build_detector_pair()
        for detector in detectors.values():
            detector.start()
        sim.run_until(1.0)
        assert failures["a"] == []
        assert failures["b"] == []

    def test_crashed_peer_is_detected(self):
        sim, network, detectors, failures = build_detector_pair()
        for detector in detectors.values():
            detector.start()
        sim.run_until(0.2)
        network.hosts["b"].fail()
        detectors["b"].stop()
        sim.run_until(1.0)
        assert failures["a"] == ["b"]

    def test_view_lease_holds_while_heartbeats_go_out(self):
        sim, _, detectors, failures = build_detector_pair()
        for detector in detectors.values():
            detector.start()
        for step in range(1, 50):
            sim.run_until(0.021 * step)
            assert detectors["a"].in_view()
        assert failures["b"] == []

    def test_view_lease_lapses_before_the_peer_can_suspect_and_stays_lapsed(self):
        """A node frozen for most of the failure timeout can no longer tell
        whether its peer excluded it; hearing from it again does not undo an
        exclusion, so sending again does not renew the lease."""
        sim, _, detectors, failures = build_detector_pair(heartbeat_interval=0.02, timeout=0.08)
        for detector in detectors.values():
            detector.start()
        sim.run_until(0.2)
        detectors["a"].stop()  # frozen: no heartbeat leaves a
        last_beat = 0.2
        sim.run_until(last_beat + 0.055)
        assert detectors["a"].in_view() and failures["b"] == []
        sim.run_until(last_beat + 0.065)
        assert not detectors["a"].in_view() and failures["b"] == []  # lapses first
        sim.run_until(0.4)
        assert failures["b"] == ["a"]
        detectors["a"].start()
        sim.run_until(0.6)
        assert not detectors["a"].in_view()

    def test_detection_fires_only_once(self):
        sim, network, detectors, failures = build_detector_pair()
        detectors["a"].start()
        network.hosts["b"].fail()
        sim.run_until(2.0)
        assert failures["a"].count("b") == 1

    def test_any_message_counts_as_liveness_evidence(self):
        sim, _, detectors, failures = build_detector_pair()
        detectors["a"].start()
        # b never starts its heartbeat timer, but a observes traffic from b.
        timer = detectors["a"].runtime.periodic(0.02, lambda: detectors["a"].observe("b"))
        sim.run_until(0.5)
        timer.cancel()
        assert failures["a"] == []

    def test_cleared_peer_is_trusted_again(self):
        sim, _, detectors, failures = build_detector_pair()
        detectors["a"].suspect("b")
        assert detectors["a"].is_suspected("b")
        detectors["a"].clear("b")
        assert not detectors["a"].is_suspected("b")

    def test_add_and_remove_peer(self):
        sim, _, detectors, _ = build_detector_pair()
        detectors["a"].add_peer("c")
        assert "c" in detectors["a"].peers
        detectors["a"].remove_peer("c")
        assert "c" not in detectors["a"].peers

    def test_stop_cancels_timers(self):
        sim, _, detectors, failures = build_detector_pair()
        detectors["a"].start()
        detectors["a"].stop()
        assert not detectors["a"].started


class TestMembershipManager:
    def make_lot(self):
        return LeafOnlyTree.from_rack_map(
            {"rack-0": ["a", "b", "c"], "rack-1": ["d", "e", "f"]}, height=2
        )

    def test_note_failure_queues_delete_update(self):
        manager = MembershipManager("rack-0")
        update = manager.note_failure("b")
        assert update.action == "delete"
        assert manager.has_pending
        assert manager.take_pending() == [update]
        assert not manager.has_pending

    def test_duplicate_updates_are_collapsed(self):
        manager = MembershipManager("rack-0")
        manager.note_failure("b")
        manager.note_failure("b")
        assert len(manager.take_pending()) == 1

    def test_apply_delete_updates_table_and_live_view(self):
        lot = self.make_lot()
        table = lot.new_emulation_table()
        manager = MembershipManager("rack-0")
        live = {"a", "b", "c"}
        update = MembershipUpdate(action="delete", node_id="b", super_leaf="rack-0")
        manager.apply_committed([update], table, live)
        assert "b" not in live
        assert "b" not in table.emulators("1")
        assert manager.applied == [update]

    def test_apply_add_restores_node(self):
        lot = self.make_lot()
        table = lot.new_emulation_table()
        table.remove_node("b")
        manager = MembershipManager("rack-0")
        live = {"a", "c"}
        update = MembershipUpdate(action="add", node_id="b", super_leaf="rack-0")
        manager.apply_committed([update], table, live)
        assert "b" in live
        assert "b" in table.emulators("1")

    def test_add_for_other_super_leaf_does_not_touch_local_live_view(self):
        lot = self.make_lot()
        table = lot.new_emulation_table()
        manager = MembershipManager("rack-0")
        live = {"a", "b", "c"}
        update = MembershipUpdate(action="add", node_id="z", super_leaf="rack-9")
        manager.apply_committed([update], table, live)
        assert "z" not in live
