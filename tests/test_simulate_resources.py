"""Unit tests for Resource (FIFO queueing, utilization) and Store."""

import pytest

from repro.obs.tracer import EventTracer
from repro.simulate.engine import SimulationError, Simulator
from repro.simulate.resources import Resource, Store, UtilizationMonitor, WFQResource


def hold(sim, resource, duration, log, label):
    grant = yield resource.request()
    log.append(("start", label, sim.now))
    try:
        yield sim.timeout(duration)
    finally:
        resource.release(grant)
    log.append(("end", label, sim.now))


class TestResource:
    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Resource(Simulator(), capacity=0)

    def test_serializes_capacity_one(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []
        sim.process(hold(sim, resource, 2.0, log, "a"))
        sim.process(hold(sim, resource, 3.0, log, "b"))
        sim.run()
        assert log == [
            ("start", "a", 0.0),
            ("end", "a", 2.0),
            ("start", "b", 2.0),
            ("end", "b", 5.0),
        ]

    def test_fifo_order(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []
        for label in "abcd":
            sim.process(hold(sim, resource, 1.0, log, label))
        sim.run()
        starts = [entry[1] for entry in log if entry[0] == "start"]
        assert starts == list("abcd")

    def test_capacity_two_overlaps(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        log = []
        for label in "abc":
            sim.process(hold(sim, resource, 2.0, log, label))
        sim.run()
        # a and b run together; c starts when the first finishes.
        assert ("start", "c", 2.0) in log
        assert sim.now == 4.0

    def test_release_without_hold_rejected(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        with pytest.raises(SimulationError):
            resource.release()

    def test_counters(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []
        sim.process(hold(sim, resource, 1.0, log, "a"))
        sim.process(hold(sim, resource, 1.0, log, "b"))
        sim.run()
        assert resource.granted_count == 2
        assert resource.in_use == 0
        assert resource.queue_length == 0

    def test_busy_time_excludes_idle_gaps(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        log = []

        def delayed():
            yield sim.timeout(5.0)
            yield from hold(sim, resource, 1.0, log, "late")

        sim.process(hold(sim, resource, 2.0, log, "early"))
        sim.process(delayed())
        sim.run()
        # Busy 0-2 and 5-6; the simulation ends at t=6.
        assert resource.monitor.busy_time == pytest.approx(3.0)
        assert resource.utilization() == pytest.approx(3.0 / 6.0)

    def test_utilization_zero_horizon(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        assert resource.utilization() == 0.0


class TestAcquire:
    """``acquire`` takes a free slot with no grant event, else queues."""

    def test_free_slot_is_taken_synchronously(self):
        sim = Simulator()
        sim.tracer = EventTracer()
        res = Resource(sim, capacity=1, name="disk")
        assert res.acquire() is None
        assert res.in_use == 1 and res.granted_count == 1
        # The tracer still sees the grant, with no wait.
        wait = sim.tracer.registry.histogram("resource.disk.wait_s")
        assert wait.count == 1 and wait.total == 0.0
        queued = res.acquire()
        assert queued is not None and not queued.triggered
        assert res.queue_length == 1
        res.release()
        assert queued.triggered and res.in_use == 1
        sim.run()
        assert sim.tracer.events_dispatched == 1  # the queued grant only

    def test_wfq_acquire_stamps_and_moves_the_virtual_clock(self):
        sim = Simulator()
        res = WFQResource(sim)

        def tagged():
            sim.active_process.qos = ("gold", 4.0)
            assert res.acquire() is None
            assert res._vclock == 0.25 and res._flow_finish["gold"] == 0.25
            queued = res.acquire()
            assert res._queue[0][0][0] == 0.5
            res.release()
            yield queued
            res.release()

        sim.process(tagged())
        sim.run()
        assert res.in_use == 0 and res._vclock == 0.5


class TestUtilizationMonitor:
    def test_nesting(self):
        sim = Simulator()
        monitor = UtilizationMonitor(sim)
        monitor.acquire()
        monitor.acquire()
        sim.timeout(4.0)
        sim.run()
        monitor.release()
        assert monitor.busy_time == 0.0  # One user still active.
        monitor.release()
        assert monitor.busy_time == pytest.approx(4.0)

    def test_release_without_acquire(self):
        with pytest.raises(SimulationError):
            UtilizationMonitor(Simulator()).release()

    def test_snapshot_includes_open_interval(self):
        sim = Simulator()
        monitor = UtilizationMonitor(sim)
        monitor.acquire()
        sim.timeout(2.0)
        sim.run()
        assert monitor.snapshot() == pytest.approx(2.0)
        assert monitor.busy_time == 0.0


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)
        store.put("x")
        got = store.get()
        sim.run()
        assert got.value == "x"

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        received = []

        def consumer():
            item = yield store.get()
            received.append((item, sim.now))

        def producer():
            yield sim.timeout(3.0)
            store.put("late-item")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert received == [("late-item", 3.0)]

    def test_fifo_items_and_getters(self):
        sim = Simulator()
        store = Store(sim)
        received = []

        def consumer(tag):
            item = yield store.get()
            received.append((tag, item))

        sim.process(consumer("first"))
        sim.process(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            store.put(1)
            store.put(2)

        sim.process(producer())
        sim.run()
        assert received == [("first", 1), ("second", 2)]

    def test_len(self):
        sim = Simulator()
        store = Store(sim)
        store.put("a")
        store.put("b")
        assert len(store) == 2
