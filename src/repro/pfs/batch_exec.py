"""Batched execution fast path: replay a columnar batch without processes.

:func:`replay_batch` serves every request of a
:class:`~repro.pfs.batch.RequestBatch` by replaying the discrete-event
simulation **arithmetically**, in two tiers that share one flat, fully
materialized job table (:class:`FlatPresplit` sub-requests, expanded with
replica mirror writes and physical extent bases, in MDS-dispatch order —
arrival order shifted by any metadata ring-hop delays):

1. the **columnar engine** (:mod:`repro.pfs.columnar`) evaluates every
   FIFO resource as a vectorized prefix-max/cumsum recurrence — no event
   loop at all (a multi-slot NIC with per-job transfer times takes one
   slot-heap step per sub-request). It covers every single-op batch on
   devices with a batched service stream
   (:meth:`~repro.devices.base.StorageDevice.service_batch`), uniform or
   uneven, and *bails* losslessly when a precondition fails at run time
   (an exact feed/departure tie on a multi-slot queue, or an exhausted
   restart budget);
2. the **event-heap replay** (the columnar tier's fallback) walks one flat
   heap of plain tuples instead of the generator-coroutine machinery
   (``Process`` objects, resource grant events, ``AllOf`` joins) that
   dominates wall-clock on million-request replays.

Neither tier is an approximation — both mirror the general path's event
cascade *hop for hop*:

- every schedule point of the general path (request bootstrap / issue-delay
  timeout, resource grant fire, service timeout) maps to the same simulated
  time and the same relative position, so same-timestamp ties break
  identically (the columnar tier bails on the one tie class whose order
  would depend on heap sequence numbers);
- resource state (FIFO queues, in-use counts, utilization intervals,
  granted counts) follows the same synchronous-grant semantics as
  :class:`repro.simulate.resources.Resource`;
- device service times are drawn at the grant hop in grant order — the heap
  tier by calling the real device model's ``service_time``, the columnar
  tier through the device's bitwise-identical ``service_batch`` — so
  per-device RNG streams advance exactly as the general path would
  consume them;
- utilization deltas accumulate per resource in closure order and apply to
  the live monitors afterwards, preserving float-summation order.

The result — completion times, busy times, byte counters, RNG states,
checksum tag tables — is therefore byte-identical to spawning one process
per request.

Replication and integrity compose with the replay instead of forcing the
general path: mirror writes are ordinary jobs in the flat table (placed at
their natural homes by :mod:`repro.pfs.placement`, extent-allocated in the same
first-touch order), and CRC bookkeeping commits from the flat arrays after
the timing replay (tag stamping is idempotent and order-independent, and
with no poisoned stripe units a verification can neither mismatch nor
alter timing). A filesystem with *poisoned* units falls back, since reads
could then raise mid-flight.

Because the replay assumes undisturbed FIFO service, it must only run when
the simulation is *quiescent* and no resilience machinery can fire:
:func:`fast_path_blocker` encodes that eligibility matrix and returns the
reason the batch must take the general path (or ``None`` when the fast path
is exact). :meth:`repro.pfs.filesystem.PFSFile.request_batch` consults it
on every submission and falls back transparently.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.devices.base import OpType
from repro.network.link import ContendedNetworkModel, NetworkModel
from repro.pfs import columnar
from repro.pfs.placement import extent_key, extent_namespace
from repro.simulate.resources import Resource

__all__ = ["FlatPresplit", "fast_path_blocker", "replay_batch"]

# Event kinds of the unified replay heap. Each corresponds to one schedule
# point of the general path (see module docstring); the integer values are
# only identities, never compared (the heap orders by (time, seq)).
_ARRIVE = 0  # request bootstrap / issue-delay timeout maturing
_MDS_GRANT = 1  # MDS service slot grant firing
_MDS_EXIT = 2  # MDS lookup service timeout maturing
_SPAWN = 3  # sub-request process bootstrap
_NIC_GRANT = 4  # NIC flow slot grant firing
_NIC_DONE = 5  # NIC transfer timeout maturing
_DISK_GRANT = 6  # disk slot grant firing
_DISK_DONE = 7  # disk service timeout maturing

#: Request hooks the replay reproduces: mirror writes are jobs in the flat
#: table, and QoS tags only matter to weighted-fair disks, which block on
#: their own. Any other active hook sends the batch to the general path.
_REPLAYED_HOOKS = frozenset({"replicated", "qos"})
#: Blocker reason of each request hook; a hook missing here blocks under
#: its own field name (default deny).
_HOOK_REASONS = {
    "retry": "retry-policy",
    "hedge": "hedged-reads",
    "server_map": "server-map",
    "routed": "degraded-routing",
    "overrides": "rebuild",
    "quorum": "write-quorum",
}


@dataclass
class FlatPresplit:
    """A batch's striping decomposition as flat sub-request columns.

    One entry per sub-request, ordered by (request, segment, server) —
    exactly the order the general path materializes them. ``offset`` is
    relative to the (region, server) extent; ``server`` is the striping
    config's server id (physical id once no server map is active, which
    the fast path guarantees). Produced by
    :meth:`repro.pfs.filesystem.PFSFile._presplit_flat`.
    """

    req: np.ndarray  # int64 request index
    server: np.ndarray  # int64 striping-config server id
    offset: np.ndarray  # int64 offset within the (region, server) extent
    size: np.ndarray  # int64 bytes
    region: np.ndarray  # int64 region id (extent namespace key)


@dataclass
class _JobSet:
    """Fully materialized jobs of one replay, in MDS-dispatch order.

    Replica mirror writes are expanded into ordinary jobs (each right after
    its primary, matching the general path's spawn order) and ``offset`` is
    physical (extent base applied). Requests stay contiguous.
    """

    req: np.ndarray  # int64 batch index
    server: np.ndarray  # int64 physical server id
    offset: np.ndarray  # int64 physical offset
    size: np.ndarray  # int64 bytes
    is_write: np.ndarray  # bool
    n_mirror: int  # how many jobs are replica mirror writes


class _ServerReplay:
    """Shadow FIFO state of one :class:`FileServer` during a heap replay.

    Mirrors ``Resource`` semantics: grants are issued synchronously (state
    updated at issue time), the grant *fire* is the heap tuple. Busy-time
    deltas collect per closed interval and are applied to the live monitors
    in order at the end of the replay.
    """

    __slots__ = (
        "server",
        "service_time",
        "transfer_time",
        "nic_cap",
        "nic_in_use",
        "nic_queue",
        "nic_since",
        "nic_deltas",
        "nic_granted",
        "disk_in_use",
        "disk_queue",
        "disk_since",
        "disk_deltas",
        "disk_granted",
        "bytes_served",
        "subrequests",
    )

    def __init__(self, server):
        self.server = server
        self.service_time = server.device.service_time
        self.transfer_time = server.network.transfer_time
        self.nic_cap = server.nic.capacity
        self.nic_in_use = 0
        self.nic_queue = deque()
        self.nic_since = 0.0
        self.nic_deltas = []
        self.nic_granted = 0
        self.disk_in_use = 0
        self.disk_queue = deque()
        self.disk_since = 0.0
        self.disk_deltas = []
        self.disk_granted = 0
        self.bytes_served = 0
        self.subrequests = 0


def fast_path_blocker(handle, batch=None) -> str | None:
    """Why ``handle`` cannot take the batched fast path right now, or None.

    The replay is exact only when the simulation is quiescent (nothing else
    scheduled or running — this also excludes installed fault injectors,
    whose timer processes sit on the heap from installation) and every
    component is in its plain, undisturbed configuration: FIFO resources
    with no holders, waiters, or stall windows; stateless network models;
    tracing off. The request hooks come from the handle's own
    :meth:`~repro.pfs.filesystem.PFSFile.request_hooks`, in field order:
    every active hook blocks unless the replay reproduces it. Replication
    and checksumming do *not* block — mirror writes and CRC bookkeeping
    replay exactly — unless corruption faults have poisoned stripe units,
    in which case a read could raise mid-flight and the full repair
    machinery must run.

    The metadata cluster replays as long as the ring is whole and calm:
    no armed crash interrupts, every shard alive with an idle plain
    service queue, and no entry-time tie whose general-path order would
    depend on event sequence numbers (the per-batch analysis of
    :func:`_plan_mds`). The client-side metadata cache likewise replays in
    closed form via the plan. Without a ``batch`` the tie analysis cannot
    run, so the answer is the conservative one: a cache, or a ring walk
    with a hop delay, may tie. Anything else returns a short reason string
    used both for the fallback decision and the ``pfs.batch.fallback.*``
    counters.
    """
    pfs = handle.pfs
    sim = pfs.sim
    if sim.tracer is not None:
        return "tracing"
    if sim._active_process is not None or sim._heap or sim._ready:
        return "simulator-busy"
    hooks = handle.request_hooks()
    for field, value in zip(hooks._fields, hooks):
        if field == "overrides" and pfs.rebuild is not None:
            # An attached rebuild manager's failure hooks install overrides
            # mid-flight; only the general path resolves them.
            return "rebuild"
        if value and field not in _REPLAYED_HOOKS:
            return _HOOK_REASONS.get(field, field)
    integrity = pfs.integrity
    if integrity is not None and integrity.units_poisoned > 0:
        return "integrity-poisoned"
    mds = pfs.mds
    # Armed injectors also imply a non-empty heap (caught above); the flag
    # check is defense in depth against manual arming.
    if mds._interruptible:
        return "mds-interruptible"
    if not all(mds.health.alive):
        return "mds-degraded"
    if len(mds.ring) != mds.n_shards:
        return "mds-ring-changed"
    for shard in mds.shards:
        service = shard._service
        if type(service) is not Resource:
            return "custom-mds"
        if service._held or service._in_use or service._queue:
            return "mds-busy"
    if batch is None:
        if pfs.mds_cache is not None:
            return "mds-cache"
        if mds.hop_latency > 0 and _ring_hops(mds, handle.name).any():
            return "mds-entry-tie"
    else:
        t0 = sim.now
        arrival_times, arrival_order = _arrivals(batch, t0)
        _, reason = _plan_mds(handle, batch, t0, arrival_times, arrival_order)
        if reason is not None:
            return reason
    for server in pfs.servers:
        reason = server.fast_batch_blocker()
        if reason is not None:
            return reason
        if type(server.network) not in (NetworkModel, ContendedNetworkModel):
            return "custom-network"
    return None


def _arrivals(batch, t0: float) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-request arrival instants and arrival-order permutation.

    The general path spawns one process per request in batch order; a
    request with a non-zero issue delay yields one timeout before
    consulting the MDS. Hence arrival *ties* at ``t0`` resolve with all
    zero-delay requests (bootstrap hop only) ahead of all delayed ones
    (timeout hop), each group in batch order. ``None`` for the order means
    batch order (untimed batch).
    """
    n = len(batch)
    issue = batch.issue_times
    if issue is None:
        return np.full(n, t0, dtype=np.float64), None
    arrival_times = t0 + issue
    immediate = np.flatnonzero(issue == 0.0)
    delayed = np.flatnonzero(issue != 0.0)
    arrival_order = np.concatenate(
        (immediate, delayed[np.argsort(arrival_times[delayed], kind="stable")])
    )
    return arrival_times, arrival_order


@dataclass
class _MdsPlan:
    """Closed-form MDS stage of one batched replay.

    Produced by :func:`_plan_mds` (pure analysis, no state change) and
    consumed by both replay tiers for timing and by :func:`_commit_mds`
    for the timing-independent counters. ``mode``:

    - ``"queue"``: every request performs a real consult — FIFO service at
      the owner shard's ``service`` entered at per-request instants
      (arrival plus ring-hop delay), exiting — and dispatching
      sub-requests — in ``entry_order``;
    - ``"fill"``: client cache miss — the first arrival leads one real
      consult, arrivals strictly before its fill instant coalesce onto it,
      later arrivals hit the filled entry; nobody else touches the MDS;
    - ``"hit"``: the cache already holds a current-generation entry —
      every request spawns at its own arrival, zero MDS load;
    - ``"empty"``: zero-request batch, nothing to do.
    """

    mode: str
    lookup: float = 0.0
    service: object = None
    #: "queue": absolute MDS-entry instants (batch order) and the batch
    #: indices in entry order (None = batch order).
    entry_times: np.ndarray | None = None
    entry_order: np.ndarray | None = None
    #: "fill"/"hit": absolute sub-request spawn instants, batch order.
    spawn_times: np.ndarray | None = None
    #: Permutation for :func:`_materialize`'s first-touch extent order
    #: (None = batch order).
    dispatch_order: np.ndarray | None = None
    owner: object = None
    hops_total: int = 0
    hops_max: int = 0
    #: "fill": the leader's single busy interval (release - grant), kept as
    #: the exact float difference the live monitor would accumulate.
    leader_busy: float = 0.0
    n_consults: int = 0
    n_coalesced: int = 0
    n_hits: int = 0


def _ring_hops(cluster, key: str) -> np.ndarray:
    """Hops of a lookup of ``key`` entering at each ring member, ring order."""
    ring = cluster.ring
    members = ring.members()
    return np.fromiter(
        (ring.route(member, key, cluster.routing)[0] for member in members),
        dtype=np.int64,
        count=len(members),
    )


def _plan_mds(
    handle, batch, t0: float, arrival_times, arrival_order
) -> tuple["_MdsPlan | None", str | None]:
    """Plan the batch's MDS stage: ``(plan, None)`` or ``(None, reason)``.

    Mutates nothing, so :func:`fast_path_blocker` calls it to pre-flight
    the tie classes whose general-path order would depend on event
    sequence numbers, and :func:`replay_batch` calls it again (on the
    unchanged quiescent state) to drive the replay.
    """
    pfs = handle.pfs
    cluster = pfs.mds
    n = len(batch)
    if n == 0:
        return _MdsPlan(mode="empty"), None
    cache = pfs.mds_cache
    if cache is not None and cache.is_valid(handle):
        return (
            _MdsPlan(
                mode="hit",
                spawn_times=arrival_times.copy(),
                dispatch_order=arrival_order,
                n_hits=n,
            ),
            None,
        )
    lookup = cluster.lookup_time(handle.layout.region_count())
    key = handle.name
    owner = cluster.shards[cluster.ring.owner_of(key)]
    # Entry shards rotate with the consult sequence number (assigned in
    # arrival order), and each consult pays its ring walk before queueing
    # at the owner.
    hops_m = _ring_hops(cluster, key)
    if cache is not None:
        # Miss: the first arrival leads the one real consult; it finds the
        # (idle, the blocker's guarantee) service immediately.
        leader = int(arrival_order[0]) if arrival_order is not None else 0
        leader_hops = int(hops_m[cluster._consult_seq % hops_m.shape[0]])
        t_enter = float(arrival_times[leader])
        if leader_hops and cluster.hop_latency > 0:
            t_enter = t_enter + leader_hops * cluster.hop_latency
        t_fill = t_enter + lookup if lookup > 0 else t_enter
        # An arrival at exactly the fill instant resolves by event sequence
        # numbers (hit vs. coalesced wait) — not replayed arithmetically.
        ties = int(np.count_nonzero(arrival_times == t_fill))
        if t_fill == arrival_times[leader]:
            ties -= 1  # the leader itself (zero-cost consult)
        if ties:
            return None, "mds-fill-tie"
        n_coalesced = int(np.count_nonzero(arrival_times < t_fill))
        if arrival_times[leader] < t_fill:
            n_coalesced -= 1
        return (
            _MdsPlan(
                mode="fill",
                lookup=lookup,
                service=owner._service,
                spawn_times=np.where(arrival_times > t_fill, arrival_times, t_fill),
                dispatch_order=arrival_order,
                owner=owner,
                hops_total=leader_hops,
                hops_max=leader_hops,
                leader_busy=t_fill - t_enter,
                n_consults=1,
                n_coalesced=n_coalesced,
                n_hits=int(np.count_nonzero(arrival_times > t_fill)),
            ),
            None,
        )
    # Uncached: MDS entry order is arrival order shifted by per-request
    # hop delays.
    ranks = (cluster._consult_seq + np.arange(n, dtype=np.int64)) % hops_m.shape[0]
    hops_by_rank = hops_m[ranks]
    hops_max = int(hops_by_rank.max())
    entry_times = arrival_times
    entry_order = arrival_order
    if cluster.hop_latency > 0 and hops_max > 0:
        delay = hops_by_rank * cluster.hop_latency
        if arrival_order is None:
            # Untimed batch: hop timers are all scheduled at t0 in batch
            # order, so equal entry instants resolve in batch order — which
            # is exactly what a stable sort preserves.
            entry_times = arrival_times + delay
            entry_order = np.argsort(entry_times, kind="stable")
        else:
            delay_batch = np.empty(n, dtype=np.float64)
            delay_batch[arrival_order] = delay
            entry_times = arrival_times + delay_batch
            # With staggered arrivals, hop timers are scheduled at each
            # request's own arrival, so equal post-t0 entry instants can
            # resolve by sequence numbers the closed form cannot always
            # reproduce. (Ties at t0 are the zero-hop immediates, which
            # enter inline in batch order — safe.)
            late = entry_times[entry_times > t0]
            if late.shape[0] > 1 and np.unique(late).shape[0] != late.shape[0]:
                return None, "mds-entry-tie"
            entry_order = arrival_order[
                np.argsort(entry_times[arrival_order], kind="stable")
            ]
    return (
        _MdsPlan(
            mode="queue",
            lookup=lookup,
            service=owner._service,
            entry_times=entry_times,
            entry_order=entry_order,
            dispatch_order=entry_order,
            owner=owner,
            hops_total=int(hops_by_rank.sum()),
            hops_max=hops_max,
            n_consults=n,
        ),
        None,
    )


def _commit_mds(pfs, handle, plan: _MdsPlan) -> None:
    """Apply a plan's timing-independent MDS/cache counters after a replay."""
    if plan.mode == "empty":
        return
    if plan.n_consults:
        cluster = pfs.mds
        cluster.lookup_count += plan.n_consults
        cluster._consult_seq += plan.n_consults
        cluster.hops_total += plan.hops_total
        if plan.hops_max > cluster.hops_max:
            cluster.hops_max = plan.hops_max
        plan.owner.lookup_count += plan.n_consults
    cache = pfs.mds_cache
    if plan.mode == "fill":
        if plan.lookup > 0:
            # The leader's lone grant: one busy interval, one grant count.
            plan.service.monitor.busy_time += plan.leader_busy
            plan.service.granted_count += 1
        cache.misses += 1
        cache.coalesced += plan.n_coalesced
        cache.fill(handle)
    if plan.mode in ("fill", "hit"):
        cache.hits += plan.n_hits
        cache.audit_many(handle, plan.n_hits)


def replay_batch(handle, batch, flat: FlatPresplit) -> tuple[np.ndarray, float, int, bool]:
    """Serve ``batch`` on ``handle`` arithmetically; see module docstring.

    Args:
        handle: the :class:`~repro.pfs.filesystem.PFSFile` being driven.
        batch: the :class:`~repro.pfs.batch.RequestBatch` to serve.
        flat: the handle's flat presplit (layout snapshot at submission).

    Returns:
        ``(elapsed, t_end, n_subrequests, used_columnar)`` — per-request
        elapsed seconds in batch order, the simulated completion time of
        the whole batch, the number of sub-requests served (replica mirrors
        included), and whether the columnar tier handled it.

    Caller must have verified :func:`fast_path_blocker` returned None; the
    replay itself does not re-check and would silently diverge otherwise.
    """
    pfs = handle.pfs
    sim = pfs.sim
    t0 = sim.now
    n = len(batch)

    arrival_times, arrival_order = _arrivals(batch, t0)
    # MDS service is FIFO with one uniform service time per batch, so
    # requests *exit* the MDS — and first-touch their extents — in the
    # plan's dispatch order (MDS entry order: arrival order shifted by any
    # ring-hop delays; plain arrival order for cache hits/fills).
    plan, reason = _plan_mds(handle, batch, t0, arrival_times, arrival_order)
    if plan is None:
        raise RuntimeError(f"replay_batch without fast-path pre-flight: {reason}")

    jobs = _materialize(handle, batch, flat, plan.dispatch_order)

    completion = None
    used_columnar = False
    single = batch.single_op
    if single is not None and columnar.eligible(pfs, batch):
        completion = columnar.replay_columnar(
            pfs, handle, jobs, single is OpType.READ, plan
        )
        used_columnar = completion is not None
    if completion is None:
        completion = _replay_heap(pfs, handle, batch, jobs, plan)

    # Shared (timing-independent) commits.
    _commit_mds(pfs, handle, plan)
    if jobs.n_mirror:
        pfs.integrity.mirrored_writes += jobs.n_mirror
    _commit_integrity(pfs, jobs)
    if n:
        is_read_col = batch.is_read
        read_bytes = int(batch.sizes[is_read_col].sum())
        handle.bytes_read += read_bytes
        handle.bytes_written += batch.total_bytes - read_bytes
        t_end = float(completion.max())
    else:
        t_end = t0
    return completion - arrival_times, t_end, int(jobs.req.shape[0]), used_columnar


def _materialize(handle, batch, flat: FlatPresplit, dispatch_order) -> _JobSet:
    """Expand a flat presplit into the replay's physical job table.

    Reorders sub-requests into MDS-dispatch order (the order requests exit
    the MDS stage and spawn their subs; ``None`` = batch order),
    interleaves replica mirror writes after their primaries, retargets
    them to their natural homes (:mod:`repro.pfs.placement`), and assigns extent
    bases in first-occurrence order — the exact ``_extent_base`` call
    sequence the general path would issue, so first-touch allocation
    matches.
    """
    pfs = handle.pfs
    req = flat.req
    server = flat.server
    offset = flat.offset
    size = flat.size
    region = flat.region
    n = len(batch)
    n_jobs = req.shape[0]

    if dispatch_order is not None and n_jobs:
        rank = np.empty(n, dtype=np.int64)
        rank[dispatch_order] = np.arange(n, dtype=np.int64)
        perm = np.argsort(rank[req], kind="stable")
        req = req[perm]
        server = server[perm]
        offset = offset[perm]
        size = size[perm]
        region = region[perm]

    is_write = (
        ~batch.is_read[req] if n_jobs else np.zeros(0, dtype=bool)
    )

    # Replica expansion: one extra write job per (mirror copy, write sub),
    # immediately after its primary — the general path's spawn order.
    n_mirror = 0
    copy_no = None
    if handle._replicated and n_jobs:
        layout = handle.layout
        regs = np.unique(region)
        rcounts = np.asarray(
            [layout.replica_count(int(r)) for r in regs.tolist()], dtype=np.int64
        )
        copies = rcounts[np.searchsorted(regs, region)]
        copies = np.where(is_write, copies, 1)
        if (copies > 1).any():
            idx = np.repeat(np.arange(n_jobs, dtype=np.int64), copies)
            first = (np.cumsum(copies) - copies)[idx]
            copy_no = np.arange(idx.shape[0], dtype=np.int64) - first
            req = req[idx]
            offset = offset[idx]
            size = size[idx]
            region = region[idx]
            is_write = is_write[idx]
            server = server[idx]
            n_mirror = int((copy_no > 0).sum())
            mult = int(copy_no.max()) + 1
            key = server * mult + copy_no
            uniq, inv = np.unique(key, return_inverse=True)
            targets = np.empty(uniq.shape[0], dtype=np.int64)
            natural_home = pfs.placement.natural_home
            for u, packed in enumerate(uniq.tolist()):
                targets[u] = natural_home(*divmod(packed, mult))
            server = targets[inv]
            n_jobs = req.shape[0]

    # Extent bases, allocated in first-occurrence (= materialization) order.
    if n_jobs:
        copy_vals = (
            copy_no if copy_no is not None else np.zeros(n_jobs, dtype=np.int64)
        )
        region_span = int(region.max()) + 1
        key = (copy_vals * region_span + region) * pfs.n_servers + server
        uniq, first_at, inv = np.unique(key, return_index=True, return_inverse=True)
        bases = np.empty(uniq.shape[0], dtype=np.int64)
        extent_ns = extent_namespace(handle.name, handle.layout_generation)
        extent_base = pfs._extent_base
        for u in np.argsort(first_at, kind="stable").tolist():
            j = int(first_at[u])
            ns_key = extent_key(extent_ns, int(copy_vals[j]))
            bases[u] = extent_base(ns_key, int(region[j]), int(server[j]))
        offset = offset + bases[inv]

    return _JobSet(
        req=req,
        server=server,
        offset=offset,
        size=size,
        is_write=is_write,
        n_mirror=n_mirror,
    )


def _commit_integrity(pfs, jobs: _JobSet) -> None:
    """Apply a replay's CRC bookkeeping from the flat job table.

    Exact because with no poisoned stripe units (the fast path guarantee)
    checksum state never feeds back into timing or control flow during the
    replay: writes stamp clean tags (idempotent, order-independent — the
    tag of a block is a pure function of its identity) and reads count one
    verification each, finding nothing. Runs after either replay tier.
    """
    if pfs.integrity is None or not jobs.req.shape[0]:
        return
    acct = pfs.integrity
    servers = pfs.servers
    order = np.argsort(jobs.server, kind="stable")
    sorted_server = jobs.server[order]
    starts = np.flatnonzero(
        np.concatenate(([True], sorted_server[1:] != sorted_server[:-1]))
    )
    stops = np.concatenate((starts[1:], [sorted_server.shape[0]]))
    for a, b in zip(starts.tolist(), stops.tolist()):
        checks = servers[int(sorted_server[a])].checksums
        if checks is None:
            continue
        idx = order[a:b]
        write_mask = jobs.is_write[idx]
        acct.checks += int((~write_mask).sum())
        if write_mask.any():
            widx = idx[write_mask]
            block_size = checks.block_size
            first = jobs.offset[widx] // block_size
            counts = (jobs.offset[widx] + jobs.size[widx] - 1) // block_size - first + 1
            blocks = np.repeat(first, counts) + (
                np.arange(int(counts.sum()), dtype=np.int64)
                - np.repeat(np.cumsum(counts) - counts, counts)
            )
            tags = checks._tags
            expected = checks._expected
            for block in np.unique(blocks).tolist():
                tags[block] = expected(block)


def _replay_heap(pfs, handle, batch, jobs: _JobSet, plan: _MdsPlan) -> np.ndarray:
    """Event-heap tier: replay the materialized jobs tuple by tuple.

    Exact for any batch shape the blocker admits (mixed ops, schedules with
    feed/departure ties on multi-slot resources — the cases the columnar
    tier does not cover). The MDS stage comes pre-analyzed in
    ``plan``: queue mode feeds the shadow FIFO at the planned entry
    instants; fill/hit modes skip the shadow MDS entirely and spawn each
    request's sub-jobs at its planned spawn instant. Commits resource
    monitors/counters; returns absolute per-request completion times in
    batch order.
    """
    n = len(batch)
    is_read_col = batch.is_read
    read_op = OpType.READ
    write_op = OpType.WRITE

    if plan.mode == "queue":
        lookup = plan.lookup
        mds_enabled = lookup > 0
        service = plan.service
        mds_cap = service.capacity
        entry_t = plan.entry_times
        order = plan.entry_order
    else:
        lookup = 0.0
        mds_enabled = False
        service = None
        mds_cap = 0
        entry_t = plan.spawn_times
        order = plan.dispatch_order
    if n == 0:
        entry_t = np.zeros(0, dtype=np.float64)

    # ``entry_t[order]`` is nondecreasing, so the tuple list is already a
    # valid heap; the rank doubles as the tie-breaking sequence number,
    # reproducing the general path's same-instant resume order.
    if order is None:
        times = entry_t.tolist()
        heap = [(times[k], k, _ARRIVE, k) for k in range(n)]
    else:
        times = entry_t[order].tolist()
        heap = [
            (times[r], r, _ARRIVE, int(i)) for r, i in enumerate(order.tolist())
        ]

    # Build per-request job lists from the flat table (requests are
    # contiguous in it, in dispatch order).
    states: dict[int, _ServerReplay] = {}
    servers = pfs.servers
    jobs_by_request: list[list | None] = [None] * n
    req_list = jobs.req.tolist()
    server_list = jobs.server.tolist()
    offset_list = jobs.offset.tolist()
    size_list = jobs.size.tolist()
    write_list = jobs.is_write.tolist()
    current: list | None = None
    prev_req = -1
    for k in range(len(req_list)):
        i = req_list[k]
        if i != prev_req:
            current = jobs_by_request[i] = []
            prev_req = i
        sid = server_list[k]
        ss = states.get(sid)
        if ss is None:
            ss = states[sid] = _ServerReplay(servers[sid])
        is_write = write_list[k]
        # job = (server state, is_write, op, physical offset, size,
        #        batch index)
        current.append(
            (ss, is_write, write_op if is_write else read_op, offset_list[k], size_list[k], i)
        )
    for i in range(n):
        if jobs_by_request[i] is None:
            jobs_by_request[i] = []

    remaining = [len(job_list) for job_list in jobs_by_request]
    completion = entry_t.copy()

    # Shadow MDS service state (same Resource semantics as the servers').
    m_in_use = 0
    m_queue: deque = deque()
    m_since = 0.0
    m_deltas: list[float] = []
    m_granted = 0

    seq = len(heap)
    push = heapq.heappush
    pop = heapq.heappop

    while heap:
        t, _, kind, payload = pop(heap)
        if kind == _NIC_GRANT:
            # The waiter resumes: compute the transfer and schedule its end.
            push(heap, (t + payload[0].transfer_time(payload[4]), seq, _NIC_DONE, payload))
            seq += 1
        elif kind == _DISK_GRANT:
            # Resume hop: the device RNG advances here, matching the order
            # the general path's generator would consume it.
            push(
                heap,
                (t + payload[0].service_time(payload[2], payload[3], payload[4]), seq, _DISK_DONE, payload),
            )
            seq += 1
        elif kind == _NIC_DONE:
            ss = payload[0]
            ss.nic_in_use -= 1
            if ss.nic_in_use == 0:
                ss.nic_deltas.append(t - ss.nic_since)
            if ss.nic_queue:
                waiter = ss.nic_queue.popleft()
                if ss.nic_in_use == 0:
                    ss.nic_since = t
                ss.nic_in_use += 1
                ss.nic_granted += 1
                push(heap, (t, seq, _NIC_GRANT, waiter))
                seq += 1
            if payload[1]:  # write: disk stage next
                if ss.disk_in_use or ss.disk_queue:
                    ss.disk_queue.append(payload)
                else:
                    ss.disk_in_use = 1
                    ss.disk_granted += 1
                    ss.disk_since = t
                    push(heap, (t, seq, _DISK_GRANT, payload))
                    seq += 1
            else:  # read: payload delivered, sub-request complete
                ss.bytes_served += payload[4]
                ss.subrequests += 1
                i = payload[5]
                remaining[i] -= 1
                if not remaining[i]:
                    completion[i] = t
        elif kind == _DISK_DONE:
            ss = payload[0]
            ss.disk_in_use = 0
            ss.disk_deltas.append(t - ss.disk_since)
            if ss.disk_queue:
                waiter = ss.disk_queue.popleft()
                ss.disk_since = t
                ss.disk_in_use = 1
                ss.disk_granted += 1
                push(heap, (t, seq, _DISK_GRANT, waiter))
                seq += 1
            if payload[1]:  # write: persisted, sub-request complete
                ss.bytes_served += payload[4]
                ss.subrequests += 1
                i = payload[5]
                remaining[i] -= 1
                if not remaining[i]:
                    completion[i] = t
            else:  # read: NIC stage next
                if ss.nic_in_use < ss.nic_cap and not ss.nic_queue:
                    if ss.nic_in_use == 0:
                        ss.nic_since = t
                    ss.nic_in_use += 1
                    ss.nic_granted += 1
                    push(heap, (t, seq, _NIC_GRANT, payload))
                    seq += 1
                else:
                    ss.nic_queue.append(payload)
        elif kind == _SPAWN:
            ss = payload[0]
            if payload[1]:  # write: NIC first (client -> server)
                if ss.nic_in_use < ss.nic_cap and not ss.nic_queue:
                    if ss.nic_in_use == 0:
                        ss.nic_since = t
                    ss.nic_in_use += 1
                    ss.nic_granted += 1
                    push(heap, (t, seq, _NIC_GRANT, payload))
                    seq += 1
                else:
                    ss.nic_queue.append(payload)
            else:  # read: disk first
                if ss.disk_in_use or ss.disk_queue:
                    ss.disk_queue.append(payload)
                else:
                    ss.disk_in_use = 1
                    ss.disk_granted += 1
                    ss.disk_since = t
                    push(heap, (t, seq, _DISK_GRANT, payload))
                    seq += 1
        elif kind == _MDS_GRANT:
            push(heap, (t + lookup, seq, _MDS_EXIT, payload))
            seq += 1
        elif kind == _MDS_EXIT:
            m_in_use -= 1
            if m_in_use == 0:
                m_deltas.append(t - m_since)
            if m_queue:
                nxt = m_queue.popleft()
                if m_in_use == 0:
                    m_since = t
                m_in_use += 1
                m_granted += 1
                push(heap, (t, seq, _MDS_GRANT, nxt))
                seq += 1
            job_list = jobs_by_request[payload]
            if job_list:
                for job in job_list:
                    push(heap, (t, seq, _SPAWN, job))
                    seq += 1
            else:
                completion[payload] = t
        else:  # _ARRIVE
            if mds_enabled:
                if m_in_use < mds_cap and not m_queue:
                    if m_in_use == 0:
                        m_since = t
                    m_in_use += 1
                    m_granted += 1
                    push(heap, (t, seq, _MDS_GRANT, payload))
                    seq += 1
                else:
                    m_queue.append(payload)
            else:  # zero-cost consult returns inline; spawn subs now
                job_list = jobs_by_request[payload]
                if job_list:
                    for job in job_list:
                        push(heap, (t, seq, _SPAWN, job))
                        seq += 1
                else:
                    completion[payload] = t

    # Fold the shadow state back into the live components. Busy-time deltas
    # apply per resource in interval-closure order — float summation order
    # matches the general path's monitor arithmetic.
    for ss in states.values():
        server = ss.server
        nic_monitor = server.nic.monitor
        for delta in ss.nic_deltas:
            nic_monitor.busy_time += delta
        server.nic.granted_count += ss.nic_granted
        disk_monitor = server.disk.monitor
        for delta in ss.disk_deltas:
            disk_monitor.busy_time += delta
        server.disk.granted_count += ss.disk_granted
        server.bytes_served += ss.bytes_served
        server.subrequests_served += ss.subrequests
    if service is not None and m_deltas:
        service_monitor = service.monitor
        for delta in m_deltas:
            service_monitor.busy_time += delta
    if service is not None:
        service.granted_count += m_granted

    return completion
