"""Unit tests for the discrete-event engine.

The engine's execution order is ``(time, priority, seq)``.  Besides the
behavioural cases below, it is pinned by digests recorded from the fired
traces of the engine micro-benchmark mix (:class:`TestFiredTracePins`):
any change to the order moves a digest.
"""

import hashlib
import heapq
import random

import pytest

from repro.bench.runner import _drive_engine_mix
from repro.sim.engine import EventLoop, SimulationError, Simulator


class TestEventLoop:
    def test_starts_at_time_zero(self):
        loop = EventLoop()
        assert loop.now == 0.0

    def test_schedule_and_run_single_event(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.5, lambda: fired.append(loop.now))
        loop.run()
        assert fired == [1.5]

    def test_events_run_in_time_order(self):
        loop = EventLoop()
        order = []
        loop.schedule(3.0, lambda: order.append("c"))
        loop.schedule(1.0, lambda: order.append("a"))
        loop.schedule(2.0, lambda: order.append("b"))
        loop.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_run_in_schedule_order(self):
        loop = EventLoop()
        order = []
        for label in ("first", "second", "third"):
            loop.schedule(1.0, lambda l=label: order.append(l))
        loop.run()
        assert order == ["first", "second", "third"]

    def test_priority_breaks_ties_before_sequence(self):
        loop = EventLoop()
        order = []
        loop.schedule(1.0, lambda: order.append("low"), priority=10)
        loop.schedule(1.0, lambda: order.append("high"), priority=1)
        loop.run()
        assert order == ["high", "low"]

    def test_negative_delay_rejected(self):
        loop = EventLoop()
        with pytest.raises(ValueError):
            loop.schedule(-0.1, lambda: None)

    def test_schedule_at_in_the_past_rejected(self):
        loop = EventLoop()
        loop.schedule(1.0, lambda: None)
        loop.run()
        with pytest.raises(ValueError):
            loop.schedule_at(0.5, lambda: None)

    def test_cancelled_event_does_not_fire(self):
        loop = EventLoop()
        fired = []
        event = loop.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        loop.run()
        assert fired == []

    def test_len_counts_only_live_events(self):
        loop = EventLoop()
        event = loop.schedule(1.0, lambda: None)
        loop.schedule(2.0, lambda: None)
        assert len(loop) == 2
        event.cancel()
        assert len(loop) == 1

    def test_step_returns_false_when_empty(self):
        loop = EventLoop()
        assert loop.step() is False

    def test_run_until_advances_clock_to_deadline(self):
        loop = EventLoop()
        loop.schedule(0.5, lambda: None)
        loop.run_until(2.0)
        assert loop.now == 2.0

    def test_run_until_does_not_execute_later_events(self):
        loop = EventLoop()
        fired = []
        loop.schedule(0.5, lambda: fired.append("early"))
        loop.schedule(5.0, lambda: fired.append("late"))
        loop.run_until(1.0)
        assert fired == ["early"]
        assert len(loop) == 1

    def test_events_scheduled_during_run_are_executed(self):
        loop = EventLoop()
        fired = []

        def chain():
            fired.append(loop.now)
            if len(fired) < 3:
                loop.schedule(1.0, chain)

        loop.schedule(1.0, chain)
        loop.run()
        assert fired == [1.0, 2.0, 3.0]

    def test_max_events_bound(self):
        loop = EventLoop()
        fired = []
        for i in range(10):
            loop.schedule(i + 1.0, lambda i=i: fired.append(i))
        loop.run(max_events=4)
        assert len(fired) == 4

    def test_run_resumes_after_an_event_budget(self):
        """A budgeted stop leaves the clock at the last event it ran, so the
        next run picks up the rest.  (``run_until`` took a budget too, but
        moved the clock to its deadline with earlier events still pending
        and the next step raised; that parameter is gone.)"""
        loop = EventLoop()
        fired = []
        for i in range(5):
            loop.schedule((i + 1) * 1e-3, lambda i=i: fired.append((i, loop.now)))
        loop.run(max_events=2)
        assert [i for i, _ in fired] == [0, 1]
        assert loop.now == 2e-3
        loop.run()
        assert fired == [(i, (i + 1) * 1e-3) for i in range(5)]
        with pytest.raises(TypeError):
            loop.run_until(1.0, max_events=2)

    def test_processed_events_counter(self):
        loop = EventLoop()
        for i in range(5):
            loop.schedule(float(i + 1), lambda: None)
        loop.run()
        assert loop.processed_events == 5

    def test_stop_halts_run(self):
        loop = EventLoop()
        fired = []
        loop.schedule(1.0, lambda: (fired.append(1), loop.stop()))
        loop.schedule(2.0, lambda: fired.append(2))
        loop.run()
        assert fired == [1]


class TestCancellationAndTies:
    def test_callback_cancels_sibling_at_the_same_instant(self):
        loop = EventLoop()
        fired = []
        victim = loop.schedule_at(1e-5, lambda: fired.append("victim"), priority=9)
        loop.schedule_at(1e-5, lambda: victim.cancel(), priority=1)
        loop.run()
        assert fired == []
        assert len(loop) == 0

    def test_callback_cancels_sibling_at_a_nearby_time(self):
        loop = EventLoop()
        fired = []
        sibling = loop.schedule_at(8.4e-5, lambda: fired.append("sibling"))
        loop.schedule_at(8.16e-5, lambda: sibling.cancel(), priority=1)
        loop.run()
        assert fired == []
        assert len(loop) == 0

    def test_same_instant_events_drain_in_priority_then_seq_order(self):
        rng = random.Random(13)
        plan = [(rng.randrange(16), index) for index in range(200)]
        loop = EventLoop()
        order = []
        for priority, index in plan:
            loop.schedule_at(6e-5, lambda i=index: order.append(i), priority=priority)
        loop.run()
        assert order == [index for _, index in sorted(plan)]

    def test_fast_and_event_entries_share_the_seq_counter(self):
        loop = EventLoop()
        order = []
        loop.schedule_fast(1e-5, lambda: order.append("fast-0"), 5)
        loop.schedule_at(1e-5, lambda: order.append("event-1"), priority=5)
        loop.schedule_fast(1e-5, lambda: order.append("fast-2"), 5)
        loop.run()
        assert order == ["fast-0", "event-1", "fast-2"]

    def test_cancelled_ghosts_drain_without_firing_or_going_negative(self):
        loop = EventLoop()
        fired = []
        near = loop.schedule_at(2.8e-5, lambda: fired.append("near"))
        far = loop.schedule_at(0.065, lambda: fired.append("far"))
        live = loop.schedule_at(7.6e-5, lambda: fired.append("live"))
        near.cancel()
        far.cancel()
        assert len(loop) == 1
        live.cancel()
        assert len(loop) == 0
        loop.run()
        assert fired == []
        assert len(loop) == 0

    def test_self_cancel_after_firing_does_not_double_decrement(self):
        loop = EventLoop()
        holder = {}
        other = loop.schedule_at(2e-5, lambda: None)

        def fire_and_cancel_self():
            holder["event"].cancel()  # already consumed: must be a no-op

        holder["event"] = loop.schedule_at(1e-5, fire_and_cancel_self)
        assert len(loop) == 2
        loop.run_until(1.5e-5)
        assert len(loop) == 1  # only ``other`` remains live
        other.cancel()
        assert len(loop) == 0

    def test_double_cancel_is_idempotent(self):
        loop = EventLoop()
        event = loop.schedule_at(1e-5, lambda: None)
        loop.schedule_at(2e-5, lambda: None)
        event.cancel()
        event.cancel()
        assert len(loop) == 1


class TestLongRangeSchedules:
    def test_near_and_far_events_fire_in_time_order(self):
        loop = EventLoop()
        order = []
        times = [0.0655, 0.06584, 0.16384, 5.6e-5, 1e4]
        for when in times:
            loop.schedule_at(when, lambda w=when: order.append(w))
        loop.run()
        assert order == sorted(times)
        assert loop.now == 1e4

    def test_chained_rearming_far_ahead(self):
        loop = EventLoop()
        fired = []

        def chain():
            fired.append(("chain", loop.now))
            if sum(kind == "chain" for kind, _ in fired) < 5:
                loop.schedule(0.1, chain)
            loop.schedule(1e-6, lambda: fired.append(("short", loop.now)), priority=0)

        loop.schedule(0.1, chain)
        loop.run()
        # Each re-arm fires 0.1 s later, after the short timer it armed.
        assert [kind for kind, _ in fired] == ["chain", "short"] * 5
        assert [t for _, t in fired] == sorted(t for _, t in fired)
        assert fired[-2][1] == pytest.approx(0.5)
        assert len(loop) == 0


class TestPastEntryIsRefused:
    """A heap entry older than the clock is a broken invariant, not a
    schedule: both execution paths raise instead of moving time back."""

    @pytest.mark.parametrize("drive", ["run", "run_until"])
    def test_an_entry_before_now_raises(self, drive):
        loop = EventLoop()
        fired = []
        loop.schedule_at(1e-3, lambda: fired.append(loop.now))
        loop.run_until(2e-3)
        # Bypass the schedule_at check to plant an entry in the past.
        heapq.heappush(loop._heap, (1.5e-3, 10, next(loop._seq), lambda: fired.append("past")))
        loop._live += 1
        with pytest.raises(SimulationError):
            if drive == "run":
                loop.run()
            else:
                loop.run_until(3e-3)
        assert fired == [1e-3]
        assert loop.now == 2e-3


class TestFiredTracePins:
    """Golden fired traces of the engine micro-benchmark mix.

    Each pin is ``(sha256 prefix of repr(trace), processed_events, now)``
    for 1500 operations.  Clustered delays keep the heap shallow; spread
    delays (0-250 ms) fill it with far-future entries.  The values were
    recorded from the calendar-queue engine this heap replaced, which ran
    the same ``(time, priority, seq)`` order.
    """

    CLUSTERED = {
        0: ("6c630194", 1826, 0.0020724389583335664),
        1: ("4ec34ada", 1830, 0.0020708689871777137),
        7: ("8e9527be", 1834, 0.002069839752444577),
        42: ("de60451a", 1811, 0.0020761952819059316),
    }
    SPREAD = {
        0: ("79e2cbd7", 1795, 0.48093034719052286),
        1: ("3d936d6b", 1800, 0.4648952983037585),
        7: ("c0f761dc", 1802, 0.4814285268077161),
        42: ("645f8132", 1779, 0.49850955131243524),
    }

    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("hostile", [False, True])
    def test_fired_trace_matches_the_recorded_pin(self, seed, hostile):
        loop, trace = _drive_engine_mix(EventLoop, 1500, seed, hostile)
        digest = hashlib.sha256(repr(trace).encode("utf-8")).hexdigest()[:8]
        pin = (self.SPREAD if hostile else self.CLUSTERED)[seed]
        assert (digest, loop.processed_events, loop.now) == pin
        assert len(loop) == 0

    @pytest.mark.parametrize(
        "seed, snapshots",
        [
            (3, [(0.01, 60, 340), (0.02, 104, 296), (0.05, 259, 141), (0.1, 400, 0)]),
            (11, [(0.01, 53, 347), (0.02, 101, 299), (0.05, 267, 133), (0.1, 400, 0)]),
        ],
    )
    def test_run_until_window_edges(self, seed, snapshots):
        """Clock, processed count and live count at each window edge."""
        rng = random.Random(seed)
        loop = EventLoop()
        for _ in range(400):
            when, priority = rng.random() * 0.08, rng.randrange(12)
            loop.schedule_at(when, lambda: None, priority=priority)
        edges = []
        for edge in (0.01, 0.02, 0.05, 0.1):
            loop.run_until(edge)
            edges.append((loop.now, loop.processed_events, len(loop)))
        assert edges == snapshots


class TestSimulator:
    def test_same_seed_same_rng_stream(self):
        sim_a, sim_b = Simulator(seed=42), Simulator(seed=42)
        assert [sim_a.rng.random() for _ in range(5)] == [sim_b.rng.random() for _ in range(5)]

    def test_different_seed_different_stream(self):
        sim_a, sim_b = Simulator(seed=1), Simulator(seed=2)
        assert [sim_a.rng.random() for _ in range(5)] != [sim_b.rng.random() for _ in range(5)]

    def test_fork_rng_is_deterministic_per_label(self):
        sim_a, sim_b = Simulator(seed=7), Simulator(seed=7)
        assert sim_a.fork_rng("n1").random() == sim_b.fork_rng("n1").random()

    def test_fork_rng_differs_between_labels(self):
        sim = Simulator(seed=7)
        assert sim.fork_rng("n1").random() != sim.fork_rng("n2").random()

    def test_run_until_updates_now(self):
        sim = Simulator()
        sim.run_until(3.5)
        assert sim.now == 3.5
