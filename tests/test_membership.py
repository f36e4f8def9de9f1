"""Tests for the failure detector and membership manager."""


from repro.canopus.lot import LeafOnlyTree
from repro.canopus.membership import FailureDetector, Heartbeat, MembershipManager
from repro.canopus.messages import MembershipUpdate
from repro.runtime.sim_runtime import SimRuntime
from repro.sim.engine import Simulator
from repro.sim.network import Network


def build_detectors(names, heartbeat_interval=0.02, timeout=0.08, seed=19):
    """One detector per name, all on one switch, each with every other as a
    peer.  A message from ``s`` to ``r`` is lost while ``(s, r)`` is in ``cut``."""
    sim = Simulator(seed=seed)
    network = Network(sim.loop)
    network.add_switch("sw")
    for name in names:
        network.add_host(name)
        network.add_link(name, "sw", 1e-5, 1e9)
    failures = {name: [] for name in names}
    detectors = {}
    cut = set()
    for name in names:
        runtime = SimRuntime(sim, network.hosts[name])
        detector = FailureDetector(
            runtime, [peer for peer in names if peer != name], heartbeat_interval, timeout,
            on_failure=failures[name].append,
        )
        runtime.set_handler(lambda sender, msg, d=detector, name=name: d.on_message(sender, msg)
                            if (sender, name) not in cut and isinstance(msg, Heartbeat) else None)
        detectors[name] = detector
    return sim, network, detectors, failures, cut


def build_detector_pair(heartbeat_interval=0.02, timeout=0.08, seed=19):
    return build_detectors(("a", "b"), heartbeat_interval, timeout, seed)[:4]


def started_trio():
    sim, network, detectors, failures, cut = build_detectors(("a", "b", "c"))
    for detector in detectors.values():
        detector.start()
    sim.run_until(0.2)
    return sim, network, detectors, failures, cut


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

    def test_view_lease_holds_while_the_peer_echoes_and_sending_alone_does_not_renew_it(self):
        sim, _, detectors, failures, cut = build_detectors(("a", "b"))
        for detector in detectors.values():
            detector.start()
        for step in range(1, 10):
            sim.run_until(0.021 * step)
            assert detectors["a"].in_view()
        # From 0.2 on a hears nothing, and goes on sending: b is content,
        # and a cannot know that.
        sim.run_until(0.2)
        cut.add(("b", "a"))  # the last heartbeat a got left b at 0.18, echoing 0.16
        sim.run_until(0.215)
        assert detectors["a"].in_view()
        sim.run_until(0.225)
        assert not detectors["a"].in_view() and detectors["b"].in_view()
        assert failures == {"a": [], "b": []}

    def test_view_lease_lapses_before_the_peer_can_suspect_and_stays_lapsed(self):
        """b stops hearing a.  b's heartbeats keep arriving, echoing an ever
        older stamp, so a's lease runs out first; once b has suspected a it
        no longer heartbeats it, and being heard again changes nothing."""
        sim, _, detectors, failures, cut = build_detectors(("a", "b"))
        for detector in detectors.values():
            detector.start()
        sim.run_until(0.2)
        cut.add(("a", "b"))  # the last stamp b heard, and echoes, is 0.18
        sim.run_until(0.235)
        assert detectors["a"].in_view() and failures["b"] == []
        sim.run_until(0.245)
        assert not detectors["a"].in_view() and failures["b"] == []  # lapses first
        sim.run_until(0.4)
        assert failures["b"] == ["a"]
        cut.clear()
        sim.run_until(0.6)
        assert not detectors["a"].in_view()
        assert failures["a"] == ["b"]  # b went quiet towards a for good

    def test_two_way_partition_lapses_the_lease_within_the_failure_timeout(self):
        sim, _, detectors, failures, cut = build_detectors(("a", "b"))
        for detector in detectors.values():
            detector.start()
        sim.run_until(0.2)
        cut.update({("a", "b"), ("b", "a")})
        sim.run_until(0.2 + 0.08 - 0.001)
        assert not detectors["a"].in_view() and not detectors["b"].in_view()
        assert failures == {"a": [], "b": []}

    def test_one_silent_peer_lapses_the_lease_whatever_the_others_echo(self):
        sim, _, detectors, failures, _ = started_trio()
        detectors["c"].stop()  # c's last heartbeat left at 0.2, echoing 0.18 or 0.2
        sim.run_until(0.235)
        assert detectors["a"].in_view()
        sim.run_until(0.265)
        assert not detectors["a"].in_view() and not detectors["b"].in_view()
        assert failures == {"a": [], "b": [], "c": []}

    def test_echoes_resuming_before_anyone_timed_out_make_the_lease_valid_again(self):
        sim, _, detectors, failures, _ = started_trio()
        back_in_view = []
        detectors["a"].on_in_view = lambda: back_in_view.append(sim.now)
        detectors["c"].stop()
        sim.run_until(0.25)
        detectors["c"].start()  # next heartbeat at 0.27; a and b would suspect c at 0.28
        sim.run_until(0.265)
        assert not detectors["a"].in_view() and back_in_view == []
        sim.run_until(0.275)
        assert detectors["a"].in_view() and detectors["b"].in_view()
        sim.run_until(0.5)
        assert failures == {"a": [], "b": [], "c": []}
        # Reported once, when c's echo caught up; renewals are not news.
        assert len(back_in_view) == 1 and 0.27 < back_in_view[0] < 0.275

    def test_suspected_peer_keeps_the_lease_lapsed_until_its_delete_commits(self):
        """Suspecting c proves nothing about what c thinks of a: c may be
        the one that stopped hearing.  Only the committed delete (which c
        cannot outvote) takes c out of the set."""
        sim, network, detectors, failures, _ = started_trio()
        network.hosts["c"].fail()
        detectors["c"].stop()
        sim.run_until(0.5)
        assert failures["a"] == ["c"] and detectors["a"].is_suspected("c")
        assert not detectors["a"].in_view()
        back_in_view = []
        detectors["a"].on_in_view = lambda: back_in_view.append(sim.now)
        detectors["a"].remove_peer("c")
        assert detectors["a"].in_view() and back_in_view == [0.5]

    def test_node_that_saw_every_peer_deleted_holds_no_lease(self):
        """It may have lost them to a partition it sat out alone, and be the
        only one to have committed their deletes.  A node that never had a
        peer has nobody who could exclude it."""
        sim, network, detectors, failures, _ = started_trio()
        for name in ("b", "c"):
            network.hosts[name].fail()
            detectors[name].stop()
        sim.run_until(0.5)
        assert sorted(failures["a"]) == ["b", "c"]
        back_in_view = []
        detectors["a"].on_in_view = lambda: back_in_view.append(sim.now)
        detectors["a"].remove_peer("b")
        detectors["a"].remove_peer("c")
        assert detectors["a"].peers == [] and not detectors["a"].in_view()
        assert back_in_view == []
        assert build_detectors(("a",))[2]["a"].in_view()

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
        assert update == MembershipUpdate(node_id="b", super_leaf="rack-0")
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
        update = MembershipUpdate(node_id="b", super_leaf="rack-0")
        manager.apply_committed([update], table, live)
        assert "b" not in live
        assert "b" not in table.emulators("1")
        assert manager.applied == [update]
