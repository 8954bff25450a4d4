"""The kernel's dispatch order, its delay checks and its event count.

Zero-delay events skip the heap and wait in a FIFO ready queue. These tests
pin that the kernel still dispatches exactly in ``(time, sequence)`` order
by running random programs on it and on :class:`HeapOnlySimulator`, a
test-local copy of the loop that keeps every event on one binary heap.
They also cover the delay checks (a negative delay would move the clock
back, a NaN one would drop its event) and ``step()`` on an empty simulator.
"""

from __future__ import annotations

import heapq
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs.tracer import EventTracer
from repro.simulate.engine import Interrupt, SimulationError, Simulator


class HeapOnlySimulator(Simulator):
    """Reference kernel: every event, zero-delay or not, goes on the heap."""

    __slots__ = ("pops",)

    def __init__(self):
        super().__init__()
        self.pops = 0

    def _schedule(self, event, delay):
        sequence = self._sequence
        self._sequence = sequence + 1
        heapq.heappush(self._heap, (self._now + delay, sequence, event))

    def schedule_many(self, items, absolute=False):
        for event, value, when in items:
            event._triggered = True
            event._value = value
            sequence = self._sequence
            self._sequence = sequence + 1
            time = float(when) if absolute else self._now + when
            heapq.heappush(self._heap, (time, sequence, event))

    def run(self, until=None):
        while self._heap and not (until is not None and until.processed):
            time, _, event = heapq.heappop(self._heap)
            self._now = time
            self.pops += 1
            callbacks, event.callbacks = event.callbacks, None
            event._processed = True
            if event._cancelled:
                continue
            for callback in callbacks or ():
                callback(event)
        if until is not None and not until.processed:
            raise SimulationError("ran out of events")


# -- random programs -----------------------------------------------------------

#: Delays that land exactly on one another's timestamps (all are binary
#: fractions, so sums are exact), zero included.
DELAYS = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0])
LEAF_OPS = st.one_of(
    st.tuples(st.just("timeout"), DELAYS),
    st.tuples(st.just("succeed"), st.integers(0, 3)),
    st.tuples(st.just("wait"), st.integers(0, 3)),
    st.tuples(st.just("interrupt"), st.integers(0, 7)),
    st.tuples(st.just("batch"), st.lists(DELAYS, min_size=1, max_size=4)),
    st.tuples(st.just("race"), DELAYS),
    st.tuples(st.just("cancel"), DELAYS),
)
PROGRAM = st.recursive(
    st.lists(LEAF_OPS, max_size=6),
    lambda children: st.lists(
        st.one_of(LEAF_OPS, st.tuples(st.just("spawn"), children)), max_size=6
    ),
    max_leaves=24,
)


def _execute(sim: Simulator, programs: list, stepping: bool = False) -> list:
    """Run ``programs`` as processes on ``sim``; returns the callback log.

    The simulator first runs until the first program ends (``run`` with an
    event), then until nothing is pending; ``stepping`` does both with
    ``step()`` instead.
    """
    log: list = []
    shared = [sim.event() for _ in range(4)]
    procs: list = []

    def body(name: str, ops: list):
        for step, (kind, arg) in enumerate(ops):
            log.append((name, step, kind, sim.now))
            try:
                if kind == "timeout":
                    value = yield sim.timeout(arg, value=(name, step))
                    log.append((name, step, "woke", sim.now, value))
                elif kind == "succeed":
                    if not shared[arg].triggered:
                        shared[arg].succeed((name, step))
                elif kind == "wait":
                    value = yield shared[arg]
                    log.append((name, step, "got", sim.now, value))
                elif kind == "interrupt":
                    target = procs[arg % len(procs)]
                    if target.is_alive and target is not sim.active_process:
                        target.interrupt((name, step))
                elif kind == "batch":
                    events = [sim.event() for _ in arg]
                    sim.schedule_many(
                        [(event, i, sim.now + delay) for i, (event, delay) in
                         enumerate(zip(events, arg))],
                        absolute=True,
                    )
                    for event in events:
                        event.add_callback(lambda ev, n=name, s=step: log.append(
                            (n, s, "batch", sim.now, ev.value)))
                    value = yield sim.all_of(events)
                    log.append((name, step, "joined", sim.now, value))
                elif kind == "race":
                    value = yield sim.any_of([sim.timeout(arg, "a"), sim.timeout(0.25, "b")])
                    log.append((name, step, "raced", sim.now, value))
                elif kind == "cancel":
                    sim.timeout(arg).cancel()
                elif kind == "spawn":
                    child = sim.process(body(f"{name}.{step}", arg))
                    procs.append(child)
                    child.add_callback(lambda ev, n=name, s=step: log.append(
                        (n, s, "child-done", sim.now)))
            except Interrupt as exc:
                log.append((name, step, "interrupted", sim.now, exc.cause))
        return name

    for index, ops in enumerate(programs):
        procs.append(sim.process(body(str(index), ops)))
    first = procs[0]
    try:
        if stepping:
            while not first.processed and (sim._heap or sim._ready):
                sim.step()
            if not first.processed:
                raise SimulationError("ran out of events")
        else:
            sim.run(first)
        log.append(("first-done", sim.now))
    except SimulationError:
        log.append(("stalled", sim.now))
    if stepping:
        while sim._heap or sim._ready:
            sim.step()
    else:
        sim.run()
    log.append(("end", sim.now))
    return log


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(programs=st.lists(PROGRAM, min_size=1, max_size=4))
def test_ready_queue_keeps_the_heap_only_dispatch_order(programs):
    reference = HeapOnlySimulator()
    expected = _execute(reference, programs)
    sim = Simulator()
    sim.tracer = EventTracer()
    assert _execute(sim, programs) == expected
    # The count derived on run's exit equals a direct count of pops.
    assert sim.tracer.events_dispatched == reference.pops
    stepped = Simulator()
    stepped.tracer = EventTracer()
    assert _execute(stepped, programs, stepping=True) == expected
    assert stepped.tracer.events_dispatched == reference.pops


@pytest.mark.parametrize("stepping", [False, True])
def test_same_instant_heap_entries_dispatch_before_zero_delay_ones(stepping):
    """Timed events due now were scheduled earlier, so they go first."""
    sim = Simulator()
    log = []

    def first_fired(_):
        log.append("first")
        sim.event().succeed().add_callback(lambda _: log.append("zero-delay"))

    sim.timeout(1.0).add_callback(first_fired)
    sim.timeout(1.0).add_callback(lambda _: log.append("second"))
    if stepping:
        for _ in range(3):
            sim.step()
    else:
        sim.run()
    assert log == ["first", "second", "zero-delay"]


# -- the events-dispatched count -----------------------------------------------


def test_events_dispatched_counts_ready_queue_pops():
    sim = Simulator()
    sim.tracer = EventTracer()

    def worker():
        for _ in range(3):
            yield sim.event().succeed()
            yield sim.timeout(1.0)

    sim.process(worker())
    sim.run()
    # Bootstrap, three zero-delay events, three timeouts. The process's end
    # is no event: nobody waits on it, so it is processed in place.
    assert sim.tracer.events_dispatched == 7


def test_step_counts_and_order_match_run():
    def build(sim, log):
        def worker(name, delays):
            for delay in delays:
                yield sim.timeout(delay)
                log.append((name, sim.now))

        sim.process(worker("a", [0.0, 1.0, 0.0, 0.5]))
        sim.process(worker("b", [1.0, 0.0, 0.5, 0.0]))

    run_log: list = []
    ran = Simulator()
    build(ran, run_log)
    ran.run()

    step_log: list = []
    stepped = Simulator()
    stepped.tracer = EventTracer()
    build(stepped, step_log)
    steps = 0
    while stepped._heap or stepped._ready:
        stepped.step()
        steps += 1
    assert step_log == run_log
    assert stepped.now == ran.now
    assert stepped.tracer.events_dispatched == steps


def test_step_on_an_empty_simulator_raises_simulation_error():
    sim = Simulator()
    with pytest.raises(SimulationError, match="no events"):
        sim.step()
    sim.timeout(1.0)
    sim.step()
    with pytest.raises(SimulationError, match="no events"):
        sim.step()


# -- delay checks --------------------------------------------------------------


def test_negative_succeed_delay_is_rejected():
    """It used to resume the waiter at now == 2.0 after timeout(5)."""
    sim = Simulator()
    seen = []

    def proc():
        yield sim.timeout(5.0)
        event = sim.event()
        with pytest.raises(ValueError, match="delay"):
            event.succeed("v", delay=-3.0)
        assert not event.triggered
        event.succeed("v", delay=1.0)
        seen.append((yield event))
        seen.append(sim.now)

    sim.process(proc())
    sim.run()
    assert seen == ["v", 6.0]


@pytest.mark.parametrize("delay", [-1.0, math.nan])
def test_bad_fail_delay_is_rejected(delay):
    sim = Simulator()
    event = sim.event()
    with pytest.raises(ValueError, match="delay"):
        event.fail(RuntimeError("x"), delay=delay)
    assert not event.triggered


def test_nan_timeout_is_rejected():
    """A NaN timeout used to end run() at 1.0 with a 2.0 s process unrun."""
    sim = Simulator()
    with pytest.raises(ValueError, match="delay"):
        sim.timeout(math.nan)
    done = []

    def later():
        yield sim.timeout(2.0)
        done.append(sim.now)

    sim.process(later())
    sim.timeout(1.0)
    sim.run()
    assert done == [2.0]


@pytest.mark.parametrize("when", [-1.0, math.nan])
@pytest.mark.parametrize("absolute", [False, True])
def test_schedule_many_rejects_past_and_nan_times(when, absolute):
    sim = Simulator()
    sim.run(until=5.0)
    event = sim.event()
    when = 5.0 + when if absolute else when
    with pytest.raises(SimulationError, match="past|NaN"):
        sim.schedule_many([(event, None, when)], absolute=absolute)
    assert not event.triggered


def test_run_until_before_now_leaves_zero_delay_events_pending():
    sim = Simulator()
    sim.run(until=5.0)
    fired = []
    sim.event().succeed().add_callback(lambda _: fired.append(sim.now))
    sim.run(until=3.0)
    assert fired == [] and sim.now == 5.0
    sim.run()
    assert fired == [5.0]
