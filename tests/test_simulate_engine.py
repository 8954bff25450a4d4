"""Unit tests for the DES kernel: events, timeouts, processes, combinators."""

import gc
import weakref

import pytest

from repro.simulate.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestEvent:
    def test_initially_pending(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered
        assert not event.processed

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            _ = sim.event().value

    def test_succeed_carries_value(self):
        sim = Simulator()
        event = sim.event().succeed("payload")
        sim.run()
        assert event.ok and event.value == "payload"

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event().succeed()
        with pytest.raises(SimulationError):
            event.succeed()

    def test_fail_requires_exception(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_failed_event_value_raises(self):
        sim = Simulator()
        event = sim.event().fail(RuntimeError("boom"))
        # Nobody joined the failed event, so run() surfaces the failure
        # (same contract as an unhandled process exception)...
        with pytest.raises(RuntimeError, match="boom"):
            sim.run()
        # ...and the value accessor re-raises it on demand.
        with pytest.raises(RuntimeError, match="boom"):
            _ = event.value

    def test_failed_event_with_waiter_does_not_raise_from_run(self):
        sim = Simulator()
        event = sim.event().fail(RuntimeError("boom"))
        seen = []
        event.add_callback(lambda e: seen.append(e._exception))
        sim.run()  # Joined failure: delivered to the callback, not raised.
        assert len(seen) == 1 and str(seen[0]) == "boom"

    def test_callback_after_processed_fires_immediately(self):
        sim = Simulator()
        event = sim.event().succeed(3)
        sim.run()
        seen = []
        event.add_callback(lambda e: seen.append(e._value))
        assert seen == [3]


class TestTimeout:
    def test_advances_clock(self):
        sim = Simulator()
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.timeout(-1)

    def test_ordering(self):
        sim = Simulator()
        order = []
        sim.timeout(2.0).add_callback(lambda e: order.append("late"))
        sim.timeout(1.0).add_callback(lambda e: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_fifo_at_same_time(self):
        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda e: order.append("first"))
        sim.timeout(1.0).add_callback(lambda e: order.append("second"))
        sim.run()
        assert order == ["first", "second"]


class TestProcess:
    def test_return_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker())
        result = sim.run(proc)
        assert result == "done"
        assert sim.now == 1.0

    def test_sequential_waits_accumulate(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            yield sim.timeout(2.0)

        sim.run(sim.process(worker()))
        assert sim.now == 3.0

    def test_receives_event_values(self):
        sim = Simulator()

        def worker():
            value = yield sim.timeout(1.0, value="tick")
            return value

        assert sim.run(sim.process(worker())) == "tick"

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_yield_non_event_raises(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError, match="must yield events"):
            sim.run()

    def test_exception_propagates_to_joiner(self):
        sim = Simulator()

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("inner")

        def joiner():
            yield sim.process(failing())

        with pytest.raises(ValueError, match="inner"):
            sim.run(sim.process(joiner()))

    def test_is_alive(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(5.0)

        proc = sim.process(worker())
        assert proc.is_alive
        sim.run()
        assert not proc.is_alive

    def test_cross_simulator_event_rejected(self):
        sim_a, sim_b = Simulator(), Simulator()
        foreign = sim_b.event()

        def worker():
            yield foreign

        sim_a.process(worker())
        with pytest.raises(SimulationError, match="different simulator"):
            sim_a.run()

    def test_interrupt_delivers_cause(self):
        sim = Simulator()
        observed = []

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt as interrupt:
                observed.append(interrupt.cause)

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt("wake up")

        sim.process(interrupter())
        sim.run(proc)
        assert observed == ["wake up"]
        assert sim.now == 1.0

    def test_interrupt_finished_process_is_noop(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.5)

        proc = sim.process(quick())
        sim.run()
        proc.interrupt()  # Must not raise.

    def test_unhandled_interrupt_fails_process(self):
        sim = Simulator()

        def sleeper():
            yield sim.timeout(100.0)

        proc = sim.process(sleeper())

        def interrupter():
            yield sim.timeout(1.0)
            proc.interrupt()

        sim.process(interrupter())
        with pytest.raises(Interrupt):
            sim.run(proc)


    def test_process_that_survives_an_interrupt_is_unhooked_from_its_target(self):
        """The event a process waited on when interrupted never resumes it."""
        sim = Simulator()
        log = []

        def survivor():
            try:
                yield sim.timeout(1.0, "stale")
            except Interrupt as interrupt:
                log.append((interrupt.cause, sim.now))
            value = yield sim.timeout(5.0, "fresh")
            log.append((value, sim.now))

        proc = sim.process(survivor())

        def interrupter():
            yield sim.timeout(0.5)
            proc.interrupt("poke")

        sim.process(interrupter())
        sim.run()
        assert log == [("poke", 0.5), ("fresh", 5.5)]
        assert proc.processed and proc.value is None

    def test_cancel_releases_a_finished_process_before_the_due_time(self):
        """A cancelled timer drops its callbacks, so a finished process whose
        timer callback refers to it is collectable before the timer pops."""
        sim = Simulator()

        def worker():
            me = sim.active_process
            guard = sim.timeout(10.0)
            guard.callbacks.append(lambda _: me.interrupt("late"))
            yield sim.timeout(1.0)
            guard.cancel()

        generator = worker()
        alive = weakref.ref(generator)
        sim.process(generator)
        del generator
        sim.run(until=5.0)
        gc.collect()
        assert alive() is None
        sim.run()
        assert sim.now == 10.0


class TestCombinators:
    def test_all_of_collects_values(self):
        sim = Simulator()
        events = [sim.timeout(t, value=t) for t in (3.0, 1.0, 2.0)]
        join = sim.all_of(events)
        sim.run()
        assert join.value == [3.0, 1.0, 2.0]  # Values keep construction order.
        assert sim.now == 3.0

    def test_all_of_empty_fires_immediately(self):
        sim = Simulator()
        join = sim.all_of([])
        assert join.triggered and join._value == []

    def test_all_of_propagates_failure(self):
        sim = Simulator()
        bad = sim.event()
        join = sim.all_of([sim.timeout(1.0), bad])
        bad.fail(RuntimeError("child failed"))
        # The child is joined (by the composite), but the composite itself
        # has no waiter — its failure surfaces from run().
        with pytest.raises(RuntimeError, match="child failed"):
            sim.run()
        with pytest.raises(RuntimeError):
            _ = join.value

    def test_all_of_failure_delivered_to_waiter(self):
        sim = Simulator()
        bad = sim.event()
        join = sim.all_of([sim.timeout(1.0), bad])

        def waiter():
            with pytest.raises(RuntimeError, match="child failed"):
                yield join
            return "handled"

        proc = sim.process(waiter())
        bad.fail(RuntimeError("child failed"))
        assert sim.run(proc) == "handled"

    def test_any_of_first_wins(self):
        sim = Simulator()
        events = [sim.timeout(3.0, value="slow"), sim.timeout(1.0, value="fast")]
        race = sim.any_of(events)

        def waiter():
            result = yield race
            return result

        assert sim.run(sim.process(waiter())) == (1, "fast")

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.any_of([])


class TestRun:
    def test_run_until_time(self):
        sim = Simulator()
        fired = []
        sim.timeout(1.0).add_callback(lambda e: fired.append(1))
        sim.timeout(5.0).add_callback(lambda e: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0

    def test_run_until_event_deadlock_detected(self):
        sim = Simulator()
        never = sim.event()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run(never)

    def test_run_to_exhaustion(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(4.0)
        sim.run()
        assert sim.now == 4.0
