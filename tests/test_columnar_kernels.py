"""Columnar FIFO kernels vs a scalar ``Resource`` replay, bit for bit.

The columnar tier evaluates every multi-slot FIFO arithmetically: the
constant-service lanes (``_fifo_const``) and the slot kernel for per-job
service times (``_fifo_slots``). The slot kernel pops bare free times,
which come out sorted because no departure precedes the grant that popped
its slot, and starts its heap after the queue-free prefix of the feed.
Both kernels close busy intervals through ``_slot_deltas``, which counts
the depth after each instant: a departure that regrants a waiter fires
while every slot is busy, so simultaneous regrants never close the
interval. The reference below runs the same jobs as real DES processes on
a :class:`~repro.simulate.resources.Resource` — one process per job,
started in feed order, exactly as a server's NIC stage holds its slot —
and records each interval the monitor closes.

The grid is tie-heavy on purpose: whole bursts share one feed instant, and
dyadic service times make departures coincide exactly, so simultaneous
departures each regrant a waiter. The fixed grids keep every feed below
the shortest service, so no feed can equal a departure; the Hypothesis
properties also draw such ties and check that both kernels bail on them.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pfs.columnar import _fifo_const, _fifo_slots
from repro.simulate.engine import Simulator
from repro.simulate.resources import Resource

_FEEDS = np.array([0.0, 0.05, 0.1, 0.15, 0.2])
_SERVICES = np.array([0.25, 0.5, 0.75, 1.0])


def _reference(feed: np.ndarray, svc: np.ndarray, cap: int):
    """Departures and closed busy intervals of a real capacity-``cap`` FIFO."""
    sim = Simulator()
    resource = Resource(sim, capacity=cap)
    monitor = resource.monitor
    done = np.empty(feed.shape[0])
    deltas = []

    def job(k, f, s):
        yield sim.timeout(f)
        grant = resource.request()
        yield grant
        yield sim.timeout(s)
        if monitor._depth == 1:  # this release closes the busy interval
            deltas.append(sim.now - monitor._busy_since)
        resource.release(grant)
        done[k] = sim.now

    for k, (f, s) in enumerate(zip(feed.tolist(), svc.tolist())):
        sim.process(job(k, f, s))
    sim.run()
    return done, np.array(deltas)


def _grid(seed: int, n: int):
    rng = np.random.default_rng(seed)
    feed = np.sort(rng.choice(_FEEDS, n))
    return feed, rng.choice(_SERVICES, n)


def _assert_exact(got, feed, svc, cap):
    assert got is not None
    done, deltas = got
    ref_done, ref_deltas = _reference(feed, svc, cap)
    assert done.tobytes() == ref_done.tobytes()
    assert deltas.tobytes() == ref_deltas.tobytes()


@pytest.mark.parametrize("cap", [2, 4, 8])
@pytest.mark.parametrize("seed", range(12))
def test_slot_kernel_matches_resource(cap, seed):
    feed, svc = _grid(seed, 6 + 5 * seed)
    _assert_exact(_fifo_slots(feed, svc, cap), feed, svc, cap)


@pytest.mark.parametrize("cap", [2, 4, 8])
@pytest.mark.parametrize("seed", range(6))
def test_constant_lanes_match_resource(cap, seed):
    feed, _ = _grid(seed, 6 + 7 * seed)
    service = float(_SERVICES[seed % _SERVICES.shape[0]])
    got = _fifo_const(feed, service, cap, [1 << 20])
    _assert_exact(got, feed, np.full(feed.shape[0], service), cap)


@pytest.mark.parametrize("cap", [2, 4, 8])
def test_slot_kernel_matches_lanes_on_constant_service(cap):
    feed, _ = _grid(cap, 40)
    svc = np.full(feed.shape[0], 0.5)
    slots = _fifo_slots(feed, svc, cap)
    lanes = _fifo_const(feed, 0.5, cap, [1 << 20])
    assert slots[0].tobytes() == lanes[0].tobytes()
    assert slots[1].tobytes() == lanes[1].tobytes()


def test_simultaneous_regrants_keep_the_interval_open():
    """Two slots free at one instant and each regrants a waiter: the
    resource never goes idle, so there is one interval, not two. A plain
    time sort (both departures before both regrants) would split it."""
    feed = np.zeros(4)
    svc = np.full(4, 0.5)
    for got in (_fifo_slots(feed, svc, 2), _fifo_const(feed, 0.5, 2, [1 << 20])):
        done, deltas = got
        assert done.tolist() == [0.5, 0.5, 1.0, 1.0]
        assert deltas.tolist() == [1.0]
    _assert_exact(_fifo_slots(feed, svc, 2), feed, svc, 2)


def test_uneven_regrant_order_follows_departure_rank():
    """Job 0 (long) and job 2 (short, regranted by job 1) depart together.
    The DES hands waiter 3 job 0's slot (the earlier-ranked departure); the
    kernel needs no rank for that, since both slots free at the same
    instant and only the free time reaches the schedule."""
    feed = np.zeros(5)
    svc = np.array([0.5, 0.25, 0.25, 0.75, 0.25])
    done, _ = _fifo_slots(feed, svc, 2)
    assert done.tolist() == [0.5, 0.25, 0.5, 1.25, 0.75]
    _assert_exact(_fifo_slots(feed, svc, 2), feed, svc, 2)


@pytest.mark.parametrize("cap", [2, 4])
def test_feed_on_a_departure_instant_bails(cap):
    """A feed landing exactly on a departure is resolved by event sequence
    numbers in the general path; both kernels refuse to guess."""
    feed = np.array([0.0] * cap + [0.5])
    svc = np.full(cap + 1, 0.5)
    assert _fifo_slots(feed, svc, cap) is None
    assert _fifo_const(feed, 0.5, cap, [1 << 20]) is None


# ---------------------------------------------------------------------------
# Property: any feed shape, any service mix, every width
# ---------------------------------------------------------------------------

_DYADIC = (0.25, 0.5, 0.75, 1.0, 1.5)
_NON_DYADIC = (0.1, 0.3, 1.0 / 3.0, 0.7, 1.1)
#: Feed increments: bursts on one instant (0), dense arrivals that saturate
#: the slots, and gaps long enough to drain every slot before a refill.
_STEPS = (0.0, 0.0, 0.0, 0.05, 0.125, 0.2, 0.5, 4.0)


@st.composite
def _feeds(draw):
    """A sorted feed: an optional sparse, queue-free lead-in, then segments
    of bursts, dense runs and draining gaps."""
    lead = draw(st.integers(min_value=0, max_value=6))
    steps = [10.0] * lead  # each lead-in job finds the resource idle
    steps += draw(st.lists(st.sampled_from(_STEPS), min_size=1, max_size=40))
    feed = np.cumsum(np.array(steps))
    return feed - feed[0]


@st.composite
def _cases(draw):
    cap = draw(st.sampled_from((2, 3, 4, 8)))
    feed = draw(_feeds())
    pool = draw(st.sampled_from((_DYADIC, _NON_DYADIC)))
    svc = np.array(draw(st.lists(st.sampled_from(pool), min_size=feed.shape[0],
                                 max_size=feed.shape[0])))
    return cap, feed, svc


def _tied(feed, ref_done) -> bool:
    """The one tie class both kernels bail on: a feed on a departure instant."""
    return bool(np.intersect1d(feed, ref_done).shape[0])


@settings(max_examples=300, deadline=None)
@given(_cases())
def test_slot_kernel_matches_resource_on_any_feed(case):
    cap, feed, svc = case
    ref_done, ref_deltas = _reference(feed, svc, cap)
    got = _fifo_slots(feed, svc, cap)
    if _tied(feed, ref_done):
        assert got is None
        return
    assert got is not None
    assert got[0].tobytes() == ref_done.tobytes()
    assert got[1].tobytes() == ref_deltas.tobytes()


@settings(max_examples=200, deadline=None)
@given(_cases())
def test_both_kernels_match_resource_on_constant_service(case):
    """Constant service: the lanes and the slot kernel agree with the
    resource bit for bit, and both bail on exactly the tied feeds."""
    cap, feed, svc = case
    service = float(svc[0])
    svc = np.full(feed.shape[0], service)
    ref_done, ref_deltas = _reference(feed, svc, cap)
    slots = _fifo_slots(feed, svc, cap)
    lanes = _fifo_const(feed, service, cap, [1 << 30])
    if _tied(feed, ref_done):
        assert slots is None and lanes is None
        return
    for got in (slots, lanes):
        assert got is not None
        assert got[0].tobytes() == ref_done.tobytes()
        assert got[1].tobytes() == ref_deltas.tobytes()
