"""Edge cases of the DES's elided events (DESIGN §7).

- The quiescence rule: ``Simulator.quiescent`` holds only when nothing
  else is due at the current instant.
- Reserved sequence numbers: an event queued later under a reserved
  number dispatches where it would have if it had been queued at once.
- The retry watchdog: attempt timers of one timeout on one filesystem
  share one deadline queue, fire at exactly ``armed + timeout`` in arm
  order, and cost no event when disarmed behind the head.
- A lone sub-request served in the requesting process: a crash during it
  reaches the request as ``ServerUnavailable``, frees its slots and leaves
  no stale interrupt and no foreign ``qos`` tag behind; a serve that ends
  by granting a waiter resumes the request only after that waiter, where
  the spawned process's end event would have.
"""

from __future__ import annotations

import pytest

from repro.devices.base import OpType
from repro.faults import RetryPolicy
from repro.obs.tracer import EventTracer
from repro.pfs.filesystem import HybridPFS, _AttemptTimer
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.pfs.layout import FixedLayout
from repro.simulate.engine import Event, SimulationError, Simulator
from repro.util.units import KiB

SIZE = 64 * KiB


def _cluster(replicas: int = 1):
    sim = Simulator()
    pfs = HybridPFS.build(sim, 2, 2, seed=0)
    handle = pfs.create_file("f.dat", FixedLayout(2, 2, SIZE, replicas=replicas))
    return sim, pfs, handle


# -- the quiescence rule -------------------------------------------------


@pytest.mark.parametrize("drive", ["run", "step"])
def test_quiescent_only_when_nothing_else_is_due_now(drive):
    sim = Simulator()
    seen = {}

    def lone():
        yield sim.timeout(1.0)
        seen["lone"] = sim.quiescent()

    def crowded(tag):
        yield sim.timeout(2.0)
        seen[tag] = sim.quiescent()  # The other process is due now too.

    def fanned(tag, gate):
        yield gate
        seen[tag] = sim.quiescent()  # The gate has another callback.

    gate = sim.timeout(3.0)
    for proc in (lone(), crowded("a"), crowded("b"), fanned("x", gate), fanned("y", gate)):
        sim.process(proc)
    if drive == "run":
        sim.run()
    else:
        while sim._ready or sim._heap:
            sim.step()
    assert seen == {"lone": True, "a": False, "b": True, "x": False, "y": False}
    assert not sim._fanout


def test_fanout_flag_is_cleared_when_a_callback_raises():
    sim = Simulator()
    gate = sim.timeout(1.0)

    def boom(_event):
        raise RuntimeError("boom")

    gate.callbacks += [boom, boom]
    with pytest.raises(RuntimeError):
        sim.run()
    assert not sim._fanout and sim.quiescent()


def test_reserved_sequence_dispatches_where_it_was_reserved():
    sim = Simulator()
    sim.tracer = EventTracer()
    order = []

    def logged(tag):
        event = Event(sim)
        event.callbacks.append(lambda _e: order.append(tag))
        return event

    sim.schedule_many([(logged("a"), None, 1.0)])
    reserved = sim.reserve_sequence()
    sim.reserve_sequence()  # Never queued: leaves a gap, counts no event.
    sim.schedule_many([(logged("c"), None, 1.0)])
    late = logged("b")
    late._triggered = True
    sim.schedule_reserved(late, 1.0, reserved)
    sim.run()
    assert order == ["a", "b", "c"]
    assert sim.tracer.events_dispatched == 3
    stale = sim.reserve_sequence()
    sim.reserve_sequence()
    with pytest.raises(SimulationError):
        sim.schedule_reserved(Event(sim), sim.now, stale)


def test_timeout_too_small_to_move_the_clock_fires_in_the_same_instant():
    """A deadline equal to the arm time (``now + timeout == now``) is queued
    as a zero-delay event, as its ``Timeout`` would have been."""
    sim, pfs, handle = _cluster()
    pfs.servers[0].disk.hold()
    retry = RetryPolicy(timeout=1e-300, max_attempts=1)
    seen = {}

    def client():
        yield sim.timeout(1.0)
        try:
            yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)
        except ServerUnavailable:
            seen["failed"] = sim.now

    sim.process(client())
    sim.run()
    assert seen == {"failed": 1.0}
    assert pfs.health.timeouts == 1


# -- the retry watchdog --------------------------------------------------


def _events(sim, body) -> int:
    sim.tracer = EventTracer()
    sim.process(body())
    sim.run()
    return sim.tracer.events_dispatched


def test_disarmed_attempts_cost_one_watchdog_event():
    """200 attempts that all finish inside one timeout cost one watchdog
    pop, not one lazily cancelled timer each."""

    def serves(pfs, handle, retry):
        def body():
            for _ in range(200):
                if retry is None:
                    yield from pfs.servers[0].serve(OpType.READ, 0, SIZE)
                else:
                    yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)
        return body

    sim, pfs, handle = _cluster()
    plain = _events(sim, serves(pfs, handle, None))
    sim, pfs, handle = _cluster()
    guarded = _events(sim, serves(pfs, handle, RetryPolicy(timeout=10.0, max_attempts=1)))
    assert guarded - plain == 1
    watchdog = pfs._watchdogs[10.0]
    assert not watchdog.timers and watchdog.due is None and watchdog.queued == 0


def test_hung_serve_times_out_at_exactly_armed_plus_timeout():
    sim, pfs, handle = _cluster()
    server = pfs.servers[0]
    retry = RetryPolicy(timeout=0.3, max_attempts=1)
    seen = {}

    def client():
        # Disarmed timers ahead of the live one walk the head forward.
        for _ in range(3):
            yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)
        yield sim.timeout(0.1234567)
        server.disk.hold()
        armed = seen["armed"] = sim.now
        try:
            yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)
        except ServerUnavailable:
            seen["failed"] = sim.now
        seen["deadline"] = armed + 0.3

    sim.process(client())
    sim.run()
    assert seen["failed"] == seen["deadline"]
    assert pfs.health.timeouts == 1


def test_timers_sharing_a_deadline_fire_in_arm_order(monkeypatch):
    """Arm order, not process order, and an unrelated event due at the same
    instant between two arms dispatches between their firings."""
    sim, pfs, handle = _cluster()
    pfs.servers[0].disk.hold()
    retry = RetryPolicy(timeout=0.05, max_attempts=1)
    fired = []
    fire = _AttemptTimer.fire

    def logged_fire(timer):
        fired.append(timer.proc.name)
        fire(timer)

    monkeypatch.setattr(_AttemptTimer, "fire", logged_fire)

    def client(delays):
        for _ in range(delays):
            yield sim.timeout(0.0)
        try:
            yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)
        except ServerUnavailable:
            pass

    def bystander():
        yield sim.timeout(0.0)
        marker = sim.timeout(0.05)
        marker.callbacks.append(lambda _e: fired.append("bystander"))
        yield marker

    for name, delays in (("p0", 3), ("p1", 0), ("p2", 2), ("p3", 1)):
        sim.process(client(delays), name=name)
    sim.process(bystander())
    sim.run()
    # Arm order: p1 at the first pass, then p3, the bystander's timeout,
    # p2 and p0, one zero-delay hop apart, all due at 0.05.
    assert fired == ["p1", "p3", "bystander", "p2", "p0"]
    assert pfs.health.timeouts == 4


def test_watchdogs_are_per_timeout_and_per_filesystem():
    deadlines = {}

    def arm(sim, pfs, handle, timeout, label):
        retry = RetryPolicy(timeout=timeout, max_attempts=1)

        def client():
            yield sim.timeout(0.01)
            try:
                yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)
            except ServerUnavailable:
                deadlines[label] = sim.now

        sim.process(client())

    clusters = [_cluster(), _cluster()]
    for index, (sim, pfs, handle) in enumerate(clusters):
        pfs.servers[0].disk.hold()
        arm(sim, pfs, handle, 0.02, f"c{index}-short")
        arm(sim, pfs, handle, 0.05 * (index + 1), f"c{index}-long")
    for sim, _, _ in clusters:
        sim.run()
    assert deadlines == {
        "c0-short": 0.01 + 0.02,
        "c0-long": 0.01 + 0.05,
        "c1-short": 0.01 + 0.02,
        "c1-long": 0.01 + 0.1,
    }
    (_, first, _), (_, second, _) = clusters
    assert set(first._watchdogs) == {0.02, 0.05}
    assert set(second._watchdogs) == {0.02, 0.1}
    assert first._watchdogs[0.02] is not second._watchdogs[0.02]


# -- a lone sub-request served in place ------------------------------------


def test_crash_during_in_place_serve_reaches_the_request_cleanly():
    sim, pfs, handle = _cluster()
    server = pfs.servers[0]
    server.enable_fault_tracking()
    handle.qos = ("tenant", 3.0)
    log = []

    def client():
        proc = sim.active_process
        proc.qos = ("client", 1.0)
        try:
            yield from handle.serve_inline(OpType.READ, 0, SIZE)
        except ServerUnavailable as exc:
            log.append(("failed", exc.server, proc.qos))
        # A stale crash interrupt would be thrown in at this yield.
        yield sim.timeout(1.0)
        log.append(("slept", sim.now))

    def crasher(victim):
        yield sim.timeout(1e-4)
        # The serve runs in the requesting process, under the handle's tag.
        log.append(("serving", list(server._active) == [victim], victim.qos))
        pfs.fail_server(0)

    proc = sim.process(client(), name="client")
    sim.process(crasher(proc))
    sim.run()
    assert log == [
        ("serving", True, ("tenant", 3.0)),
        ("failed", "hserver0", ("client", 1.0)),
        ("slept", pytest.approx(1.0 + 1e-4)),
    ]
    assert proc.ok
    assert server._active == {}
    for resource in (server.disk, server.nic):
        assert resource.in_use == 0 and resource.queue_length == 0


def _in_place_race(op: OpType) -> list:
    """A lone sub-request whose last stage ends by granting a waiter.

    The write's serve ends by releasing the disk, the (corrupted) read's by
    releasing the NIC, each to a waiter queued behind it; the instant is
    then no longer quiescent.
    """
    sim = Simulator()
    pfs = HybridPFS.build(sim, 2, 2, seed=0, nic_parallelism=1)
    handle = pfs.create_file("f.dat", FixedLayout(2, 2, SIZE))
    server = pfs.servers[0]
    nic_time = pfs.network.transfer_time(SIZE)
    if op is OpType.READ:
        pfs.enable_integrity()
        server.checksums.record_write(0, SIZE)
        server.checksums.poison_block(0)
        probe = Simulator()
        probe_pfs = HybridPFS.build(probe, 2, 2, seed=0, nic_parallelism=1)
        probe.process(probe_pfs.servers[0].serve(OpType.READ, 0, SIZE))
        probe.run()
        contended, wait = server.nic, probe.now - nic_time / 2
    else:
        contended, wait = server.disk, 1.5 * nic_time
    log = []

    def request():
        try:
            yield from handle.serve_inline(op, 0, SIZE)
        except IntegrityError as exc:
            log.append(("request ended", type(exc).__name__, sim.now))
        else:
            log.append(("request ended", None, sim.now))

    def waiter():
        yield sim.timeout(wait)
        grant = yield contended.request()
        log.append(("granted", sim.now))
        contended.release(grant)

    sim.process(request())
    sim.process(waiter())
    sim.run()
    return log


@pytest.mark.parametrize("op", [OpType.WRITE, OpType.READ])
def test_in_place_serve_resumes_the_request_where_its_end_event_would(op, monkeypatch):
    """The granted waiter runs before the request resumes, as it does when
    the sub-request is a process of its own: its end event queues behind
    the grant."""
    spawned = []
    process = Simulator.process

    def counting(sim, generator, name=None):
        spawned.append(name)
        return process(sim, generator, name)

    monkeypatch.setattr(Simulator, "process", counting)
    log = _in_place_race(op)
    in_place = len(spawned)
    monkeypatch.setattr(Simulator, "quiescent", lambda sim: False)
    reference = _in_place_race(op)
    assert log == reference
    assert [entry[0] for entry in log] == ["granted", "request ended"]
    assert log[1][1] == (None if op is OpType.WRITE else "IntegrityError")
    # The reference spawns the sub-request as a process of its own.
    assert len(spawned) - in_place == in_place + 1
