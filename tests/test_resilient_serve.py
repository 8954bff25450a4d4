"""Races inside one resilient serve: its timer, its serve and hedge losers.

``PFSFile._serve_resilient`` races each attempt against the retry policy's
timeout. These tests pin the edge cases of that race: a timer that fires
in the same instant the serve completes, seen directly and through the two
callers that run it with ``yield from`` (the repairing read and a hedged
read's attempt); and a hedge-loser interrupt, which must stop the losing
copy's serve and free its disk whether or not a retry policy wraps it.
A server crash in the instant an inline serve completes is the same race
with another interrupter. With nothing failing, a retry policy must not
change a run at all.
"""

from __future__ import annotations

import pytest

from repro.devices.base import OpType
from repro.experiments.harness import Testbed, run_workload
from repro.faults import RetryPolicy
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout
from repro.pfs.placement import SubPlacement
from repro.serving.hedging import HedgeScheduler
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload

SIZE = 64 * KiB


def _cluster():
    sim = Simulator()
    pfs = HybridPFS.build(sim, 2, 2, seed=0)
    handle = pfs.create_file("f.dat", FixedLayout(2, 2, SIZE, replicas=2))
    return sim, pfs, handle


def _serve_duration() -> float:
    """Simulated time of one uncontended 64 KiB read on server 0 from t = 0."""
    sim, pfs, _ = _cluster()
    sim.process(pfs.servers[0].serve(OpType.READ, 0, SIZE))
    sim.run()
    return sim.now


def _through_resilient(handle, retry):
    yield from handle._serve_resilient(OpType.READ, 0, 0, SIZE, retry)


def _through_repairing(handle, retry):
    column = SubPlacement(handle.name, 0, 0, 0, SIZE, 2, 0, 0)
    yield from handle._serve_repairing(column, retry)


def _through_hedged_attempt(handle, retry):
    outcome = yield from HedgeScheduler(handle.pfs)._attempt(handle, (0, 0, 0), SIZE, retry)
    assert outcome is None


@pytest.mark.parametrize(
    "caller", [_through_resilient, _through_repairing, _through_hedged_attempt]
)
def test_timer_firing_as_the_serve_completes_is_a_success(caller):
    duration = _serve_duration()
    sim, pfs, handle = _cluster()
    retry = RetryPolicy(timeout=duration, max_attempts=1)
    log = []

    def client():
        yield from caller(handle, retry)
        log.append(("served", sim.now))
        # A stale timeout interrupt would be thrown in at this yield.
        yield sim.timeout(1.0)
        log.append(("slept", sim.now))

    proc = sim.process(client())
    sim.run()
    assert log == [("served", duration), ("slept", duration + 1.0)]
    assert proc.ok
    assert pfs.health.timeouts == 0
    assert pfs.servers[0].subrequests_served == 1


@pytest.mark.parametrize("retry", [None, RetryPolicy(timeout=10.0, max_attempts=1)])
def test_hedge_loser_primary_frees_its_disk_and_stops_its_serve(retry):
    """The primary copy is 1000x slow, so the hedge on copy 1 wins; the
    losing primary is interrupted at once, with or without a retry policy."""
    sim, pfs, handle = _cluster()
    primary = pfs.servers[0]
    primary.device.slowdown = 1000.0
    hedger = HedgeScheduler(pfs, select=False, base_delay=1e-3)
    handle.hedge = hedger
    handle.retry = retry
    request = handle.read(0, SIZE)
    sim.run(request)
    assert hedger.hedges_launched == 1 and hedger.hedges_won == 1
    done = sim.now
    sim.run()
    # The loser's disk slot was released at the hedge decision and its
    # serve never completed.
    assert primary.disk.in_use == 0 and primary.disk.queue_length == 0
    assert primary.subrequests_served == 0
    assert primary.disk_busy_time <= done


@pytest.mark.parametrize("replicas", [1, 2])
def test_retry_policy_without_faults_reproduces_the_plain_run(replicas):
    """With nothing failing, a resilient serve starts in the same instant
    and order as a plain one, so a retry policy changes no result."""
    testbed = Testbed(n_hservers=2, n_sservers=2, seed=0)
    workload = IORWorkload(IORConfig(n_processes=4, request_size=SIZE, file_size=2 * MiB))
    layout = FixedLayout(2, 2, SIZE, replicas=replicas)
    plain = run_workload(testbed, workload, layout)
    wrapped = run_workload(testbed, workload, layout, retry=RetryPolicy(seed=0))
    assert wrapped.makespan == plain.makespan
    assert wrapped.server_busy == plain.server_busy


def test_serve_ending_in_its_crash_instant_meets_no_stale_interrupt():
    """A crash in the instant an inline serve completes withdraws its
    interrupt: the serve succeeds and the process's next yield is clean."""
    duration = _serve_duration()
    sim, pfs, _ = _cluster()
    server = pfs.servers[0]
    server.enable_fault_tracking()
    log = []

    def crasher():
        yield sim.timeout(duration)
        server.mark_failed()

    def client():
        yield from server.serve(OpType.READ, 0, SIZE)
        log.append(("served", sim.now))
        yield sim.timeout(1.0)
        log.append(("slept", sim.now))

    sim.process(crasher())
    proc = sim.process(client())
    sim.run()
    assert server.is_failed
    assert log == [("served", duration), ("slept", duration + 1.0)]
    assert proc.ok
