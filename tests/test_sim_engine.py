"""Unit tests for the discrete-event engine."""

import pytest

from repro.sim.engine import EventLoop, HeapEventLoop, SimulationError, Simulator


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

    @pytest.mark.parametrize("loop_cls", [EventLoop, HeapEventLoop])
    def test_run_resumes_after_an_event_budget(self, loop_cls):
        """A budgeted stop leaves the clock at the last event it ran, so the
        next run picks up the rest.  (``run_until`` took a budget too, but
        moved the clock to its deadline with earlier events still pending
        and the next step raised; that parameter is gone.)"""
        loop = loop_cls()
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

    def test_register_and_get_component(self):
        sim = Simulator()
        component = object()
        sim.register("thing", component)
        assert sim.get("thing") is component

    def test_register_duplicate_raises(self):
        sim = Simulator()
        sim.register("thing", object())
        with pytest.raises(SimulationError):
            sim.register("thing", object())

    def test_run_until_updates_now(self):
        sim = Simulator()
        sim.run_until(3.5)
        assert sim.now == 3.5
