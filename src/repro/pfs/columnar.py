"""Vectorized columnar replay: the batched fast path without the heap.

The event-heap replay of :mod:`repro.pfs.batch_exec` is exact but still
walks one Python tuple per sub-request hop. For the common batched shape —
a single-op batch on plain FIFO resources — every per-resource schedule is
a *deterministic FIFO recurrence* that numpy can evaluate in bulk:

- a capacity-1 resource with per-job service ``s_i`` and sorted feed times
  ``f_i`` departs at ``d_i = fl(max(f_i, d_{i-1}) + s_i)``;
- a capacity-``c`` resource with *constant* service ``L`` decomposes into
  ``c`` independent such chains (job ``j`` starts when job ``j - c``
  departs), one per residue lane of the feed order;
- a capacity-``c`` resource whose service varies per job (HARL's uneven
  per-server sub-requests on a multi-slot NIC) pops a heap of bare slot
  free times, which come out sorted; the jobs before the first that can
  find every slot busy skip the heap (``feed + svc``).

IEEE-754 forbids closed forms (every ``+`` must round in sequence), but
``np.add.accumulate`` is an exact sequential left fold, so each busy period
evaluates as one vectorized cumulative sum; a restart loop re-anchors at
idle gaps. Utilization intervals fall out arithmetically: for capacity 1
every departure closes one interval (``d_i - g_i``); for capacity > 1 one
closes at each instant where the grants and departures so far balance (a
departure that regrants a waiter fires while every slot is busy, so it
never closes one). Every kernel needs a non-decreasing feed.

Bit-exactness contract: completion times, busy-time floats (same summation
order), resource counters, device counters/state, and device RNG streams
(each device serves its jobs in grant order through
:meth:`~repro.devices.base.StorageDevice.service_batch`, which is
bitwise-identical to the scalar ``service_breakdown`` sequence) all match
the general DES path. Whenever a precondition cannot be established cheaply
— an exact feed/departure time collision on a multi-slot resource (tie
resolution would depend on heap sequence numbers), or too many idle gaps
for the restart loop — the engine *bails*: it restores any consumed device
RNG state and returns ``None``, and the caller falls back to the event-heap
replay (still exact, still fast).
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapreplace

import numpy as np

from repro.devices.base import ServiceBatch

__all__ = ["replay_columnar"]

#: Busy-period restart loop: first/maximum np.add.accumulate span. Blocks
#: start small (an idle gap wastes little) and double while a busy period
#: keeps going (a long dense stretch amortizes the Python loop away).
_BLOCK_MIN = 32
_BLOCK_MAX = 65536
#: Flat per-restart budget charge, so the wasted-work budget also bounds
#: Python loop iterations on pathologically alternating feeds.
_ITER_COST = 8


def _chain(feed: np.ndarray, svc: np.ndarray, budget: list) -> np.ndarray | None:
    """Departures of a capacity-1 FIFO: ``d_i = fl(max(f_i, d_{i-1}) + s_i)``.

    ``feed`` must be non-decreasing. The two easy regimes are fully
    vectorized: a queue-free feed (every job finds the resource idle, found
    by one comparison pass) is ``feed + svc`` elementwise, and long busy
    periods evaluate as exact sequential folds (``np.add.accumulate``) in
    geometrically growing blocks. ``budget`` is a single-element mutable
    wasted-work allowance shared across the whole replay; feeds that mix
    idle gaps and short busy bursts at scale exhaust it and return None
    (the caller falls back to the event-heap tier).
    """
    n = feed.shape[0]
    done_free = feed + svc
    if n <= 1 or not (feed[1:] < done_free[:-1]).any():
        # Queue-free: by induction every grant is the arrival itself.
        return done_free
    done = np.empty(n, dtype=np.float64)
    h = 0
    prev = -np.inf
    block = _BLOCK_MIN
    while h < n:
        g0 = feed[h] if feed[h] > prev else prev
        end = min(n, h + block)
        acc = np.add.accumulate(np.concatenate(([g0], svc[h:end])))
        cand = acc[1:]  # done[h:end] assuming one busy period
        viol = feed[h + 1 : end] > cand[:-1]
        if viol.any():
            stop = h + 1 + int(np.argmax(viol))
            block = _BLOCK_MIN  # idle gap: next busy period starts small
        else:
            stop = end
            block = min(block * 2, _BLOCK_MAX)  # still busy: amortize
        budget[0] -= (end - stop) + _ITER_COST
        if budget[0] < 0:
            return None
        done[h:stop] = cand[: stop - h]
        prev = done[stop - 1]
        h = stop
    return done


def _prev_done(done: np.ndarray, lag: int) -> np.ndarray:
    """``done`` shifted by ``lag`` with ``-inf`` fill (departure of job i-lag)."""
    out = np.empty_like(done)
    out[:lag] = -np.inf
    out[lag:] = done[:-lag] if lag < done.shape[0] else done[:0]
    return out


def _chain_busy(
    feed: np.ndarray, svc: np.ndarray, budget: list
) -> tuple[np.ndarray, np.ndarray] | None:
    """Departures and busy deltas of a capacity-1 FIFO (None on a bail):
    every job closes its own interval, ``d_i - max(f_i, d_{i-1})``."""
    done = _chain(feed, svc, budget)
    if done is None:
        return None
    return done, done - np.maximum(feed, _prev_done(done, 1))


def _feed_tie(feed: np.ndarray, done: np.ndarray) -> bool:
    """Whether a departure lands exactly on a feed instant (``feed`` sorted)."""
    at = np.searchsorted(feed, done)
    return bool((feed.take(at, mode="clip") == done).any())


def _fifo_const(
    feed: np.ndarray, service: float, cap: int, budget: list
) -> tuple[np.ndarray, np.ndarray] | None:
    """Departures and busy deltas of a FIFO with constant service time.

    Returns ``(done, deltas)`` with deltas in interval-closure order, or
    None on a budget/tie bail. Capacity > 1 requires no exact feed/departure
    collisions (the general path resolves those by event sequence numbers).
    """
    n = feed.shape[0]
    svc = np.full(n, service)
    if cap == 1:
        return _chain_busy(feed, svc, budget)
    done = np.empty(n, dtype=np.float64)
    for lane in range(min(cap, n)):
        lane_done = _chain(feed[lane::cap], svc[lane::cap], budget)
        if lane_done is None:
            return None
        done[lane::cap] = lane_done
    if _feed_tie(feed, done):
        return None  # exact feed/departure tie: ordering is seq-dependent
    # Departures run in feed order, so job k takes the slot of job k - cap.
    return done, _slot_deltas(np.maximum(feed, _prev_done(done, cap)), done)


def _fifo_slots(
    feed: np.ndarray, svc: np.ndarray, cap: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """Departures and busy deltas of a capacity-``cap`` FIFO, any service.

    Job k is granted at ``max(f_k, t_k)``, ``t_k`` the earliest slot free
    time. The heap holds bare free times: ``d_k >= t_k``, so its pops come
    out sorted and equal times are interchangeable. Jobs before the first
    whose feed precedes a departure of jobs ``0..k-cap`` find a free slot;
    the heap starts there with the ``cap`` largest of their departures.
    Returns None on an exact feed/departure tie.
    """
    grants = feed
    done = feed + svc
    if feed.shape[0] > cap:
        late = feed[cap:] < np.maximum.accumulate(done[:-cap])
        if late.any():
            k0 = cap + int(late.argmax())
            free = np.sort(done[:k0])[-cap:].tolist()  # sorted, so a heap
            # heapreplace returns the popped free time t_k.
            pops = [
                heapreplace(free, (t if f < (t := free[0]) else f) + s)
                for f, s in zip(feed[k0:].tolist(), svc[k0:].tolist())
            ]
            grants = np.concatenate((feed[:k0], np.maximum(feed[k0:], pops)))
            done = grants + svc
    if _feed_tie(feed, done):
        return None  # exact feed/departure tie: ordering is seq-dependent
    return done, _slot_deltas(grants, done)


def _slot_deltas(grants: np.ndarray, done: np.ndarray) -> np.ndarray:
    """Busy-interval deltas of a multi-slot FIFO, in closure order.

    ``grants`` (non-decreasing) and ``done`` are the jobs' grant and
    departure instants. An interval closes at a departure instant where the
    grants and departures so far balance, and opens at a grant instant
    entered balanced. The depth never touches 0 inside an instant (a
    departure that regrants a waiter fires with every slot busy; a feed on
    a departure bails), and only an instant's last departure and first
    grant can meet these tests, so no grouping by instant is needed.
    """
    n = grants.shape[0]
    departs = np.sort(done)
    count = np.arange(n)
    closes = departs[np.searchsorted(grants, departs, "right") == count + 1]
    opens = grants[np.searchsorted(departs, grants) == count]
    return closes - opens


@dataclass
class _ServerPass:
    """Computed schedule of one server, held until the commit phase."""

    server: object
    completion: np.ndarray  # per-job final-stage departure, feed order
    nic_deltas: np.ndarray
    disk_deltas: np.ndarray
    n_jobs: int
    device_batch: ServiceBatch


def _server_pass(server, feed, offsets, sizes, op_is_read: bool, budget: list):
    """Full NIC+disk schedule of one server's jobs (feed order). None = bail."""
    net = server.network
    transfer = (net.latency + sizes * net.unit_time) * net.congestion
    cap = server.nic.capacity

    def nic_stage(nic_feed):
        if cap == 1:
            return _chain_busy(nic_feed, transfer, budget)
        if transfer.min() == transfer.max():
            return _fifo_const(nic_feed, float(transfer[0]), cap, budget)
        return _fifo_slots(nic_feed, transfer, cap)

    if op_is_read:
        device_batch = server.device.service_batch(True, offsets, sizes)
        disk = _chain_busy(feed, device_batch.startup + device_batch.transfer, budget)
        if disk is None:
            return None
        disk_done, disk_deltas = disk
        nic = nic_stage(disk_done)
        if nic is None:
            return None
        nic_done, nic_deltas = nic
        completion = nic_done
    else:
        nic = nic_stage(feed)
        if nic is None:
            return None
        nic_done, nic_deltas = nic
        # The disk takes jobs in NIC departure order; equal-time departures
        # keep feed order, as their event sequence numbers do.
        grant = np.argsort(nic_done, kind="stable")
        disk_feed = nic_done[grant]
        device_batch = server.device.service_batch(False, offsets[grant], sizes[grant])
        disk = _chain_busy(disk_feed, device_batch.startup + device_batch.transfer, budget)
        if disk is None:
            return None
        disk_done, disk_deltas = disk
        completion = np.empty_like(disk_done)
        completion[grant] = disk_done
    return _ServerPass(
        server=server,
        completion=completion,
        nic_deltas=nic_deltas,
        disk_deltas=disk_deltas,
        n_jobs=int(sizes.shape[0]),
        device_batch=device_batch,
    )


def _fold_busy(monitor, deltas: np.ndarray) -> None:
    """Fold interval deltas into a monitor in closure order, exactly.

    ``np.add.accumulate`` is a sequential left fold, so seeding it with the
    current ``busy_time`` reproduces the general path's ``+=`` sequence
    bit for bit.
    """
    if deltas.shape[0]:
        acc = np.add.accumulate(np.concatenate(([monitor.busy_time], deltas)))
        monitor.busy_time = float(acc[-1])


def eligible(pfs, batch) -> bool:
    """Static columnar preconditions (cheap; dynamic ones bail at run time)."""
    if batch.single_op is None or len(batch) == 0:
        return False
    return all(server.device.batchable for server in pfs.servers)


def replay_columnar(
    pfs,
    handle,
    jobs,
    op_is_read: bool,
    plan,
) -> np.ndarray | None:
    """Vectorized replay of a materialized single-op job set.

    ``plan`` is the batch's :class:`repro.pfs.batch_exec._MdsPlan`: queue
    mode runs the (owner shard's) lookup service as a constant-service
    FIFO fold over the planned entry instants; cache fill/hit modes arrive
    pre-solved — every request spawns at its planned instant and the MDS
    stage is skipped entirely.

    Returns per-request absolute completion times (batch order) and commits
    all resource/device/MDS state on success, or returns ``None`` with no
    observable state change (device RNGs restored) so the caller can fall
    back to the event-heap replay. The plan's timing-independent counters
    (lookup/hop/cache tallies) are NOT committed here — the caller applies
    them via :func:`repro.pfs.batch_exec._commit_mds` after either tier.

    The caller guarantees :func:`repro.pfs.batch_exec.fast_path_blocker`
    returned None and :func:`eligible` is True.
    """
    n_jobs = jobs.server.shape[0]

    # -- MDS stage: constant lookup, FIFO slots, entry-order feed ----------
    lookup = plan.lookup
    mds_deltas = None
    service = plan.service
    if plan.mode == "queue":
        n = plan.entry_times.shape[0]
        budget = [32 * (n_jobs + n) + 65536]
        order = plan.entry_order
        feed = plan.entry_times if order is None else plan.entry_times[order]
        if lookup > 0:
            res = _fifo_const(feed, lookup, service.capacity, budget)
            if res is None:
                return None
            exits, mds_deltas = res
        else:
            exits = feed
        spawn = np.empty(n, dtype=np.float64)
        if order is None:
            spawn[:] = exits
        else:
            spawn[order] = exits
    else:
        n = plan.spawn_times.shape[0]
        budget = [32 * (n_jobs + n) + 65536]
        spawn = plan.spawn_times.copy()

    # -- per-server NIC/disk schedules ------------------------------------
    passes: list[_ServerPass] = []
    completion_jobs = np.empty(n_jobs, dtype=np.float64)
    snapshots = []
    if n_jobs:
        job_spawn = spawn[jobs.req]
        order = np.argsort(jobs.server, kind="stable")
        sorted_server = jobs.server[order]
        starts = np.flatnonzero(
            np.concatenate(([True], sorted_server[1:] != sorted_server[:-1]))
        )
        stops = np.concatenate((starts[1:], [n_jobs]))
        for a, b in zip(starts.tolist(), stops.tolist()):
            idx = order[a:b]
            server = pfs.servers[int(sorted_server[a])]
            snapshots.append((server.device, server.device.rng.bit_generator.state))
            result = _server_pass(
                server,
                job_spawn[idx],
                jobs.offset[idx],
                jobs.size[idx],
                op_is_read,
                budget,
            )
            if result is None:
                for device, state in snapshots:
                    device.rng.bit_generator.state = state
                return None
            completion_jobs[idx] = result.completion
            passes.append(result)

    # -- per-request completion -------------------------------------------
    completion = spawn.copy()  # requests with no sub-requests finish at MDS exit
    if n_jobs:
        req = jobs.req
        run_starts = np.flatnonzero(np.concatenate(([True], req[1:] != req[:-1])))
        completion[req[run_starts]] = np.maximum.reduceat(completion_jobs, run_starts)

    # -- commit ------------------------------------------------------------
    for p in passes:
        server = p.server
        _fold_busy(server.nic.monitor, p.nic_deltas)
        server.nic.granted_count += p.n_jobs
        _fold_busy(server.disk.monitor, p.disk_deltas)
        server.disk.granted_count += p.n_jobs
        server.bytes_served += p.device_batch.n_bytes
        server.subrequests_served += p.n_jobs
        p.device_batch.commit()
    if mds_deltas is not None:
        _fold_busy(service.monitor, mds_deltas)
        service.granted_count += n
    return completion
