"""PFS facades: files, request fan-out, and testbed construction.

:class:`ParallelFileSystem` is the generic simulated PFS: an ordered server
list, a metadata server, a network model, and the request fan-out logic. A
:class:`PFSFile` created on it carries a :class:`LayoutPolicy`; its
``read``/``write`` methods return DES processes that complete when every
sub-request has been served — the client-perceived I/O time of the request,
exactly the quantity the cost model predicts.

:class:`HybridPFS` is the paper's testbed shape — M HDD servers (HServers)
followed by N SSD servers (SServers) — and what all two-class experiments
use. The multi-tier extension lives in :mod:`repro.pfs.tiered`.

Region-level layouts address each region as a separate physical file (R2F);
the filesystem gives every (file, region, server) extent its own physical
base so positional device models see disjoint areas.
"""

from __future__ import annotations

import bisect
from collections import deque
from collections.abc import Generator
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.devices.base import OpType
from repro.devices.hdd import HDDModel
from repro.devices.ssd import SSDModel
from repro.network.link import NetworkModel
from repro.pfs.batch import RequestBatch
from repro.pfs.health import ServerHealth, ServerUnavailable
from repro.pfs.integrity import (
    DEFAULT_BLOCK_SIZE,
    ExtentChecksums,
    IntegrityAccounting,
    IntegrityError,
)
from repro.pfs.layout import LayoutPolicy
from repro.pfs.mds_cluster import MetadataCluster, MetadataUnavailable
from repro.pfs.placement import (
    PlacementMap,
    SubPlacement,
    extent_namespace,
    parse_extent_key,
)
from repro.pfs.server import FileServer
from repro.simulate.engine import Event, Process, Simulator
from repro.util.rng import derive_rng
from repro.util.units import GiB


class RequestHooks(NamedTuple):
    """The per-request hooks of a file, in fast-path blocker order.

    :meth:`PFSFile._request_proc` reads its hooks only through
    :meth:`PFSFile.request_hooks`, and
    :func:`repro.pfs.batch_exec.fast_path_blocker` walks the same fields,
    so a hook added here blocks the batched replay until it is taught it.
    """

    retry: object
    hedge: object
    server_map: tuple[int, ...] | None
    routed: bool
    overrides: dict
    quorum: int | None
    replicated: bool
    qos: tuple | None


class _AttemptTimer:
    """The timeout of one resilient serve attempt, run in the calling process.

    ``retry_timeout`` seconds after it is armed, the timer interrupts the
    process that armed it with :attr:`expired`, a :class:`ServerUnavailable`
    the serve's stages re-raise after releasing their slots. :meth:`disarm`
    kills the timer and, if it fired in the same instant as the serve
    ended, cancels the interrupt's pending wake-up.

    The timer schedules no event of its own. It reserves the sequence
    number its ``Timeout`` would have taken and joins the filesystem's
    :class:`_Watchdog` for its timeout, which fires it at exactly that
    ``(deadline, sequence)``.
    """

    __slots__ = ("proc", "server", "timeout", "deadline", "sequence", "wakeup", "expired")

    def __init__(self, pfs: "ParallelFileSystem", retry_timeout: float, server: str):
        sim = pfs.sim
        self.proc = sim.active_process
        self.server = server
        self.timeout = retry_timeout
        self.wakeup = None
        self.expired = None
        self.deadline = sim.now + retry_timeout
        self.sequence = sim.reserve_sequence()
        watchdog = pfs._watchdogs.get(retry_timeout)
        if watchdog is None:
            watchdog = pfs._watchdogs[retry_timeout] = _Watchdog(sim)
        watchdog.arm(self)

    def fire(self) -> None:
        self.expired = ServerUnavailable(
            f"{self.server}: no response within {self.timeout:g}s", server=self.server
        )
        self.wakeup = self.proc.interrupt(self.expired)

    def disarm(self) -> None:
        self.proc = None  # Dead: the watchdog skips it, and it holds nothing.
        if self.wakeup is not None:
            self.wakeup.cancel()


class _Watchdog:
    """The attempt timers of one retry timeout on one filesystem.

    Timers join a FIFO in arm order. The timeout is constant and the clock
    never goes back, so the FIFO is also in ``(deadline, sequence)`` order.
    Only the deadline group of the first live timer is on the heap, each
    timer under its own reserved ``(deadline, sequence)``, so every live
    timer fires exactly where its own ``Timeout`` would have. When the
    group's last entry pops, the watchdog drops the timers that fired or
    were disarmed and queues the next live timer's group. Disarmed timers
    cost no event unless they head the queue.
    """

    __slots__ = ("sim", "timers", "due", "queued")

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.timers: deque[_AttemptTimer] = deque()
        #: Deadline of the group on the heap; None when nothing is queued.
        self.due: float | None = None
        #: Heap entries of that group not yet popped.
        self.queued = 0

    def arm(self, timer: _AttemptTimer) -> None:
        self.timers.append(timer)
        if self.due is None:
            self.due = timer.deadline
        if timer.deadline == self.due:
            self._queue(timer)

    def _queue(self, timer: _AttemptTimer) -> None:
        entry = Event(self.sim)
        entry._triggered = True
        entry._value = timer
        entry.callbacks.append(self._pop)
        self.sim.schedule_reserved(entry, timer.deadline, timer.sequence)
        self.queued += 1

    def _pop(self, entry: Event) -> None:
        timer = entry._value
        if timer.proc is not None:
            timer.fire()
        self.queued -= 1
        if self.queued:
            return
        timers = self.timers
        now = self.sim.now
        while timers and (timers[0].proc is None or timers[0].deadline <= now):
            timers.popleft()
        if not timers:
            self.due = None
            return
        self.due = due = timers[0].deadline
        for timer in timers:
            if timer.deadline != due:
                break
            if timer.proc is not None:
                self._queue(timer)


class PFSFile:
    """A logical file striped over the filesystem's servers."""

    def __init__(self, pfs: "ParallelFileSystem", name: str, layout: LayoutPolicy):
        self.pfs = pfs
        self.name = name
        self.layout = layout
        self.layout_generation = 0
        self.bytes_read = 0
        self.bytes_written = 0
        #: Optional per-file retry policy; falls back to the filesystem's.
        self.retry = None
        #: Degraded-mode indirection: when set, striping-config server id
        #: ``k`` addresses physical server ``server_map[k]``. Used by
        #: :meth:`relayout` after permanent failures, where the layout is
        #: planned over the *surviving* server counts only.
        self.server_map: tuple[int, ...] | None = None
        #: Fail fast instead of failing over: requests hit their planned
        #: server or raise :class:`ServerUnavailable` — no rerouting, no
        #: retries. Migration shadow handles set this so a dead target
        #: aborts the pass rather than silently placing bytes elsewhere.
        self.failfast = False
        #: Straggler-aware read scheduling hook (see
        #: :class:`repro.serving.hedging.HedgeScheduler`). None keeps the
        #: replicated-read path on :meth:`_serve_repairing` unchanged; when
        #: set, replicated reads are reordered/hedged across copies.
        self.hedge = None
        #: Optional ``(flow, weight)`` fair-queueing tag propagated to every
        #: sub-request process, read by ``WFQResource`` disks. None (the
        #: default) leaves sub-request processes untagged.
        self.qos = None
        self._sync_replication()

    def _sync_replication(self) -> None:
        """Cache whether any region of the layout is replicated.

        One attribute load on the request path instead of a layout method
        call, and the hook that turns integrity on filesystem-wide the
        moment a replicated layout appears.
        """
        self._replicated = self.layout.max_replicas() > 1
        if self._replicated:
            self.pfs._enable_replication()

    def relayout(self, layout: LayoutPolicy, server_map: tuple[int, ...] | None = None) -> int:
        """Swap in a new layout (online re-layout; see :mod:`repro.online`).

        Subsequent requests stripe under the new layout; the generation
        counter namespaces the physical extents so old and new region files
        do not alias. Returns the new generation number. Moving existing
        data between the layouts is the migrator's job.

        ``server_map`` enables *degraded* layouts planned over fewer servers
        than the filesystem physically has (after permanent failures): the
        layout's config server id ``k`` is served by physical server
        ``server_map[k]``. :meth:`ServerHealth.surviving_server_ids` produces
        exactly this mapping for a layout planned over the surviving counts.
        """
        config = layout.config_at(0)
        if server_map is None:
            if tuple(config.class_counts) != tuple(self.pfs.class_counts):
                raise ValueError(
                    f"layout built for server classes {tuple(config.class_counts)} but "
                    f"filesystem has {tuple(self.pfs.class_counts)}"
                )
        else:
            server_map = tuple(int(s) for s in server_map)
            if len(server_map) != sum(config.class_counts):
                raise ValueError(
                    f"server_map has {len(server_map)} entries but layout uses "
                    f"{sum(config.class_counts)} servers"
                )
            for physical in server_map:
                if not (0 <= physical < self.pfs.n_servers):
                    raise ValueError(f"server_map entry {physical} out of range")
        self.layout = layout
        self.server_map = server_map
        self.layout_generation += 1
        self._sync_replication()
        # Keep the MDS namespace current (and journaled, when the journal
        # is on). Shadow handles are not registered and stay off the record.
        if self.name in self.pfs.mds:
            self.pfs.mds.record_relayout(self.name, layout, self.layout_generation)
        # The old-generation cache entry must never serve another request.
        if self.pfs.mds_cache is not None:
            self.pfs.mds_cache.invalidate(self.name)
        return self.layout_generation

    def read(self, offset: int, size: int) -> Process:
        """Start a read of ``[offset, offset+size)``; returns its process."""
        return self.request(OpType.READ, offset, size)

    def write(self, offset: int, size: int) -> Process:
        """Start a write of ``[offset, offset+size)``; returns its process."""
        return self.request(OpType.WRITE, offset, size)

    def request(self, op: OpType | str, offset: int, size: int) -> Process:
        """Start an I/O request; the process value is its elapsed seconds."""
        op = OpType.parse(op)
        return self.pfs.sim.process(
            self._request_proc(op, offset, size), name=f"{self.name}:{op.value}@{offset}"
        )

    def _presplit_flat(self, batch: RequestBatch):
        """Striping decomposition of a batch as flat sub-request columns.

        Returns a :class:`repro.pfs.batch_exec.FlatPresplit` — no
        per-request Python lists at all; the layout's region map
        (:meth:`LayoutPolicy.segments_batch`) and the striping decomposition
        (:func:`repro.pfs.mapping.decompose_batch_flat`) both run as
        vectorized passes. The fast path replays the whole batch inside
        :meth:`request_batch`, so no ``relayout`` can fall between
        decomposing and serving.
        """
        from repro.pfs.batch_exec import FlatPresplit
        from repro.pfs.mapping import decompose_batch_flat

        req, rel, seg_sizes, region, cfg_idx, configs = self.layout.segments_batch(
            batch.offsets, batch.sizes
        )
        if len(configs) <= 1:
            if configs:
                piece, server, sub_off, sub_size = decompose_batch_flat(
                    configs[0], rel, seg_sizes
                )
            else:
                piece = server = sub_off = sub_size = np.zeros(0, dtype=np.int64)
            return FlatPresplit(req[piece], server, sub_off, sub_size, region[piece])
        # Multiple striping configs: decompose each distinct config's pieces
        # in one vectorized call, then stitch the groups back into global
        # (request, segment) order. A stable sort by piece index keeps each
        # piece's server-ordered sub-requests intact.
        groups: dict[int, list[int]] = {}
        for k, config in enumerate(configs):
            groups.setdefault(id(config), []).append(k)
        piece_parts, server_parts, off_parts, size_parts = [], [], [], []
        for indices in groups.values():
            sel = np.flatnonzero(np.isin(cfg_idx, np.asarray(indices, dtype=np.int64)))
            piece, server, sub_off, sub_size = decompose_batch_flat(
                configs[indices[0]], rel[sel], seg_sizes[sel]
            )
            piece_parts.append(sel[piece])
            server_parts.append(server)
            off_parts.append(sub_off)
            size_parts.append(sub_size)
        piece = np.concatenate(piece_parts)
        order = np.argsort(piece, kind="stable")
        piece = piece[order]
        return FlatPresplit(
            req[piece],
            np.concatenate(server_parts)[order],
            np.concatenate(off_parts)[order],
            np.concatenate(size_parts)[order],
            region[piece],
        )

    def request_batch(self, batch: RequestBatch, force_general: bool = False) -> Event:
        """Submit a columnar batch; returns an event firing at completion.

        The event's value is a float64 array of per-request elapsed seconds
        (issue to completion), in batch order. When the filesystem is
        quiescent and undisturbed — no tracer, no faults or retry policies,
        plain FIFO resources (see
        :func:`repro.pfs.batch_exec.fast_path_blocker`) — the batch is
        served by the arithmetic replay fast path, byte-identical to the
        general path but without per-request process machinery. Otherwise
        (or with ``force_general=True``) it spawns one process per request,
        each served exactly like :meth:`request` at its issue instant.

        Typical use drains the whole batch: ``sim.run(handle.request_batch(b))``.
        """
        from repro.pfs.batch_exec import fast_path_blocker, replay_batch

        sim = self.pfs.sim
        stats = self.pfs.batch_stats
        n = len(batch)
        reason = "forced" if force_general else fast_path_blocker(self, batch)
        done = sim.event()
        if reason is None:
            flat = self._presplit_flat(batch)
            elapsed, t_end, n_subrequests, used_columnar = replay_batch(self, batch, flat)
            sim.schedule_many([(done, elapsed, t_end)], absolute=True)
            stats["fast_batches"] += 1
            if used_columnar:
                stats["fast_columnar_batches"] += 1
            stats["fast_requests"] += n
            stats["fast_subrequests"] += n_subrequests
            return done
        stats["general_batches"] += 1
        stats["general_requests"] += n
        fallbacks = self.pfs.batch_fallbacks
        fallbacks[reason] = fallbacks.get(reason, 0) + 1
        offsets = batch.offsets.tolist()
        sizes = batch.sizes.tolist()
        reads = batch.is_read.tolist()
        issue = None if batch.issue_times is None else batch.issue_times.tolist()
        procs = []
        for idx in range(n):
            op = OpType.READ if reads[idx] else OpType.WRITE
            if issue is None:
                generator = self._request_proc(op, offsets[idx], sizes[idx])
            else:
                generator = self._issue_after(issue[idx], op, offsets[idx], sizes[idx])
            procs.append(sim.process(generator, name=f"{self.name}:{op.value}@{offsets[idx]}"))

        def _finish(umbrella: Event) -> None:
            if umbrella._exception is not None:
                done.fail(umbrella._exception)
            else:
                done.succeed(np.asarray(umbrella._value, dtype=np.float64))

        sim.all_of(procs).add_callback(_finish)
        return done

    def _issue_after(self, delay: float, op: OpType, offset: int, size: int) -> Generator:
        """Delay a request to its issue instant, then serve it in place.

        A zero delay adds no timeout event, so a zero-delay entry behaves
        exactly like a request submitted without issue times.
        """
        if delay:
            yield self.pfs.sim.timeout(delay)
        result = yield from self._request_proc(op, offset, size)
        return result

    def serve_inline(self, op: OpType | str, offset: int, size: int) -> Generator:
        """Serve the request inside the calling process (no extra Process).

        Middleware ranks use this so a rank's requests stay sequential
        without spawning a process per request.
        """
        yield from self._request_proc(OpType.parse(op), offset, size)

    def request_hooks(self) -> RequestHooks:
        """The hooks one request reads, snapshotted once per request."""
        pfs = self.pfs
        retry = self.retry if self.retry is not None else pfs.retry
        routed = pfs.health.route_map is not None
        if self.failfast:
            # Dead targets raise from FileServer.serve at dispatch instead
            # of being routed around (migration shadows must not fail over).
            retry, routed = None, False
        replicated = self._replicated
        return RequestHooks(
            retry,
            self.hedge,
            self.server_map,
            routed,
            pfs.placement.overrides,
            pfs.write_quorum if replicated else None,
            replicated,
            self.qos,
        )

    def _request_proc(self, op: OpType, offset: int, size: int) -> Generator:
        pfs = self.pfs
        sim = pfs.sim
        started = sim.now
        # Metadata lookup (RST consult under HARL) sits on the critical path
        # and contends with other clients at the MDS — unless the client's
        # layout cache holds a current-generation entry.
        cache = pfs.mds_cache
        if cache is None:
            yield from pfs.mds.consult(self.layout, self.name)
        else:
            yield from cache.lookup(self)
        # Sub-request generators in spawn order: (generator, name, joined).
        subs: list[tuple[Generator, str, bool]] = []
        extent_ns = extent_namespace(self.name, self.layout_generation)
        # Every hook stays inert in fault-free runs, so the path below is
        # byte-identical to a build without them.
        retry, hedge, server_map, routed, overrides, quorum, replicated, qos = (
            self.request_hooks()
        )
        health = pfs.health
        placement = pfs.placement
        for segment in self.layout.segments(offset, size):
            region_id = segment.region_id
            copies = self.layout.replica_count(region_id) if replicated else 1
            for sub in segment.config.decompose(segment.offset - segment.region_base, segment.size):
                server_id = sub.server_id if server_map is None else server_map[sub.server_id]
                # Copies >= 1 are addressed from the config server while
                # overrides exist, else from the routed server (PlacementMap).
                anchor = server_id
                key = extent_ns
                if overrides:
                    server_id, key = placement.resolve(extent_ns, region_id, anchor, 0)
                if routed:
                    try:
                        server_id = health.route(server_id)
                    except ServerUnavailable:
                        health.exhausted += 1
                        raise
                if not overrides:
                    anchor = server_id
                server = pfs.servers[server_id]
                physical = pfs._extent_base(key, region_id, server_id) + sub.offset
                if copies > 1:
                    column = SubPlacement(
                        extent_ns, region_id, anchor, sub.offset, sub.size, copies,
                        server_id, physical,
                    )
                if copies > 1 and op is OpType.READ:
                    if hedge is not None:
                        generator = hedge.serve_read(self, column, retry)
                    else:
                        generator = self._serve_repairing(column, retry)
                elif retry is None:
                    generator = server.serve(op, physical, sub.size)
                else:
                    generator = self._serve_resilient(op, server_id, physical, sub.size, retry)
                subs.append((generator, f"{server.name}<-{self.name}", True))
                if copies > 1 and op is OpType.WRITE:
                    # Synchronous mirroring: the request completes only once
                    # every copy is durable, so replication's write cost is
                    # paid where a real mirrored PFS pays it. With a write
                    # quorum of k, only the first k copies (primary included)
                    # gate the ack; trailing mirrors run asynchronously and a
                    # crash inside the window is the rebuild manager's to
                    # close, not the client's to observe.
                    acct = pfs.integrity
                    sync_copies = copies if quorum is None else min(quorum, copies)
                    for copy in range(1, copies):
                        target, roffset = placement.copy_at(column, copy)
                        rserver = pfs.servers[target]
                        acct.mirrored_writes += 1
                        trailing = copy >= sync_copies
                        if trailing:
                            pfs.quorum_stats["trailing_mirrors"] += 1
                        subs.append((
                            pfs._mirror(rserver, roffset, sub.size, trailing),
                            f"{rserver.name}<-{self.name}:copy{copy}",
                            not trailing,
                        ))
                    if copies > sync_copies:
                        pfs.quorum_stats["acks"] += 1
        if len(subs) == 1 and subs[0][2] and sim.quiescent():
            # A lone sub-request's bootstrap would be dispatched next: serve
            # it here instead, with no process of its own.
            yield from self._serve_in_place(subs[0][0], qos)
        else:
            joined = self._spawn(subs, qos)
            if len(joined) == 1:
                yield joined[0]
            elif joined:
                yield sim.all_of(joined)
        if op is OpType.READ:
            self.bytes_read += size
        else:
            self.bytes_written += size
        return sim.now - started

    def _spawn(self, subs: list[tuple[Generator, str, bool]], qos) -> list[Process]:
        """Start each sub-request as a process; returns the joined ones."""
        sim = self.pfs.sim
        joined = []
        for generator, name, join in subs:
            proc = sim.process(generator, name=name)
            if qos is not None:
                proc.qos = qos
            if join:
                joined.append(proc)
        return joined

    def _serve_in_place(self, generator: Generator, qos) -> Generator:
        """Run a lone sub-request in the requesting process.

        Called only when :meth:`Simulator.quiescent` holds, so the spawned
        process's bootstrap would have been dispatched next. The process
        carries the handle's ``qos`` tag while it serves (WFQ reads it at
        acquire). When the serve returns or raises, the spawned process's
        end event would have resumed the requester: unless the instant is
        still quiescent, one zero-delay event stands in for it.
        """
        sim = self.pfs.sim
        proc = sim.active_process
        tag = getattr(proc, "qos", None)
        proc.qos = qos
        error = None
        try:
            yield from generator
        except Exception as exc:
            error = exc
        finally:
            proc.qos = tag
        if not sim.quiescent():
            yield sim.timeout(0.0)
        if error is not None:
            raise error

    def _serve_resilient(
        self, op: OpType, server_id: int, offset: int, size: int, retry
    ) -> Generator:
        """One sub-request under a RetryPolicy: timeout, backoff, failover.

        Each attempt re-consults the health route map (the target may have
        died between attempts) and runs the serve in the calling process,
        racing a timer. When the timer fires first, its callback interrupts
        this process with :class:`ServerUnavailable`: the serve's stages
        release their queue slots and the attempt fails. A serve that
        completes in the timer's instant wins, and the interrupt's wake-up
        is cancelled. Backoff delays are deterministic: jitter derives from
        the policy seed and the sub-request's identity, never from
        wall-clock or global RNG state.
        """
        sim = self.pfs.sim
        health = self.pfs.health
        attempt = 1
        while True:
            try:
                target = health.route(server_id)
            except ServerUnavailable:
                health.exhausted += 1
                raise
            server = self.pfs.servers[target]
            failure: ServerUnavailable | None = None
            timer = None
            if retry.timeout is not None:
                timer = _AttemptTimer(self.pfs, retry.timeout, server.name)
            try:
                yield from server.serve(op, offset, size)
            except ServerUnavailable as exc:
                failure = exc
                if timer is not None and exc is timer.expired:
                    health.timeouts += 1
            finally:
                if timer is not None:
                    timer.disarm()
            if failure is None:
                return
            if attempt >= retry.max_attempts:
                health.exhausted += 1
                raise ServerUnavailable(
                    f"{self.name}:{op.value}@{offset}: giving up on {failure.server or server.name}"
                    f" after {attempt} attempt(s)",
                    server=failure.server or server.name,
                ) from failure
            health.retries += 1
            delay = retry.delay(attempt, key=(self.name, op.value, offset, size))
            if delay > 0:
                yield sim.timeout(delay)
            attempt += 1

    def _serve_repairing(self, column: SubPlacement, retry) -> Generator:
        """A replicated read: verify, and self-heal from a replica on mismatch.

        The primary read serves normally (including retry/failover when a
        policy is active). On checksum mismatch the client re-reads the next
        replica copy; the first clean copy repairs the poisoned primary with
        an ordinary write — contending for the disk and NIC like any client
        — before the read completes. If every copy is corrupted the original
        typed error propagates: never silent wrong bytes.
        """
        pfs = self.pfs
        server = pfs.servers[column.server]
        try:
            if retry is None:
                yield from server.serve(OpType.READ, column.offset, column.size)
            else:
                yield from self._serve_resilient(
                    OpType.READ, column.server, column.offset, column.size, retry
                )
            return
        except IntegrityError as exc:
            primary_error = exc
        acct = pfs.integrity
        # Resolve the detection eagerly: it stands as unrepairable unless a
        # clean copy heals it below — so a request aborted mid-repair (a
        # sibling sub-request failed the whole fan-out) still accounts for
        # every detection and the silent_corruptions invariant holds.
        acct.unrepairable += 1
        for copy in range(1, column.copies):
            target, offset = pfs.placement.copy_at(column, copy)
            acct.replica_reads += 1
            try:
                yield from pfs.servers[target].serve(OpType.READ, offset, column.size)
            except IntegrityError:
                # The copy's own detection resolves here: this path leaves it
                # poisoned (scrubber's job), so it counts as unrepairable.
                acct.unrepairable += 1
                continue
            yield from server.serve(OpType.WRITE, column.offset, column.size)
            acct.unrepairable -= 1
            acct.repaired += 1
            return
        raise primary_error


@dataclass(frozen=True)
class CacheStats:
    """Picklable client-side metadata-cache summary (``RunResult.cache``)."""

    hits: int
    misses: int
    coalesced: int
    invalidations: int
    dropped_fills: int
    #: Hits whose cached generation disagreed with the authoritative MDS
    #: generation at hit time — the stale-read audit. The chaos gate: zero,
    #: always.
    stale_hits: int
    #: Cluster-wide invalidation epoch at end of run (bumped on every
    #: mds-crash and journal-replayed failover).
    epoch: int

    @property
    def lookups(self) -> int:
        """Total layout lookups the clients issued through the cache."""
        return self.hits + self.misses + self.coalesced

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class MetadataCache:
    """Client-side layout cache: generation-tagged entries with coalescing.

    Sits in front of ``mds.consult`` on the request hot path and turns
    O(requests) MDS trips into O(distinct files × generations):

    - **Hit**: the cache holds an entry for the file whose layout
      generation matches the handle's *and* whose fill epoch matches the
      current invalidation epoch — the consult is skipped entirely (zero
      simulated time, zero MDS load). Every hit is audited against the
      authoritative MDS generation (:attr:`stale_hits`); a stale
      generation must never serve a read.
    - **Miss**: the first client becomes the *leader* and performs the real
      (routed, queued, crash-survivable) ``mds.consult``; concurrent
      lookups of the same file *coalesce* — they wait on the leader's fill
      event instead of consulting, so an open storm costs one MDS trip.
    - **Invalidation**: ``relayout``/``migrate`` bump the handle generation
      (and drop the entry explicitly); ``mds-crash`` and journal-replayed
      failover bump the cluster-wide *epoch* via
      :meth:`~repro.pfs.mds_cluster.MetadataCluster.subscribe_invalidation`,
      which invalidates every entry at once **and** poisons in-flight
      fills: a fill admitted before the crash whose epoch no longer
      matches is dropped (:attr:`dropped_fills`), never written — the
      failover-race fix.

    Everything is driven by simulated event order only, so cached runs are
    bit-identical serial or under ``--jobs N``.
    """

    def __init__(self, pfs: "ParallelFileSystem"):
        self.pfs = pfs
        #: file name -> (layout generation, fill epoch) of the cached entry.
        self._entries: dict[str, tuple[int, int]] = {}
        #: file name -> fill event of the in-flight leader consult.
        self._inflight: dict[str, Event] = {}
        self._epoch = 0
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.invalidations = 0
        self.dropped_fills = 0
        self.stale_hits = 0
        pfs.mds.subscribe_invalidation(self.bump_epoch)

    def bump_epoch(self) -> None:
        """Cluster-wide invalidation: crash or failover happened.

        Every cached entry and every in-flight fill carries the epoch it
        was admitted under; bumping makes them all stale at once without
        touching the dict on the hot path.
        """
        self._epoch += 1
        self.invalidations += 1

    def invalidate(self, name: str) -> None:
        """Drop one file's entry (relayout/migration commit)."""
        self.invalidations += 1
        self._entries.pop(name, None)

    def is_valid(self, handle: "PFSFile") -> bool:
        """True iff a lookup of ``handle`` would hit right now."""
        entry = self._entries.get(handle.name)
        return (
            entry is not None
            and entry[0] == handle.layout_generation
            and entry[1] == self._epoch
        )

    def _audit(self, handle: "PFSFile") -> None:
        """Stale-read audit: compare the hit against the authoritative MDS.

        Pure bookkeeping — no simulated time, no RNG. Unregistered (shadow)
        handles and hits during a shard outage cannot be checked and are
        skipped; the epoch bump already invalidated everything a crash
        could have staled.
        """
        self.audit_many(handle, 1)

    def audit_many(self, handle: "PFSFile", count: int) -> None:
        """Stale-read audit of ``count`` hits at once (batched fast path)."""
        if count <= 0:
            return
        try:
            generation = self.pfs.mds.generation_of(handle.name)
        except (FileNotFoundError, MetadataUnavailable):
            return
        if generation != handle.layout_generation:
            self.stale_hits += count

    def fill(self, handle: "PFSFile") -> None:
        """Record a completed fill for ``handle`` at the current epoch.

        The batched fast path calls this in place of the leader's inline
        fill — the blocker guarantees no epoch bump can interleave with an
        atomic replay, so the drop branch cannot arise there.
        """
        self._entries[handle.name] = (handle.layout_generation, self._epoch)

    def lookup(self, handle: "PFSFile", op: str = "open") -> Generator:
        """DES generator replacing ``mds.consult`` on the request path."""
        name = handle.name
        while True:
            if self.is_valid(handle):
                self.hits += 1
                self._audit(handle)
                return
            pending = self._inflight.get(name)
            if pending is None:
                break
            self.coalesced += 1
            yield pending
            if self.is_valid(handle):
                # Filled by the leader we waited on; the wait was already
                # counted as coalesced.
                return
            # The fill was dropped (epoch bumped mid-flight) or the layout
            # generation moved on: revalidate from the top.
        self.misses += 1
        epoch = self._epoch
        fill = self.pfs.sim.event()
        self._inflight[name] = fill
        try:
            yield from self.pfs.mds.consult(handle.layout, name, op=op)
        finally:
            if self._inflight.get(name) is fill:
                del self._inflight[name]
            fill.succeed()
        if self._epoch == epoch:
            self._entries[name] = (handle.layout_generation, epoch)
        else:
            # A crash/failover invalidated the world while this consult was
            # in flight: its answer predates the journal replay and must
            # not repopulate the cache.
            self.dropped_fills += 1

    def counters(self) -> dict[str, int]:
        """Flat snapshot exported as ``mds.cache.*`` metrics."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "invalidations": self.invalidations,
            "dropped_fills": self.dropped_fills,
            "stale_hits": self.stale_hits,
            "epoch": self._epoch,
        }

    def stats(self) -> CacheStats:
        """Picklable end-of-run summary (``RunResult.cache``)."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            coalesced=self.coalesced,
            invalidations=self.invalidations,
            dropped_fills=self.dropped_fills,
            stale_hits=self.stale_hits,
            epoch=self._epoch,
        )


class ParallelFileSystem:
    """Generic simulated PFS: ordered servers + MDS + network + fan-out.

    Subclasses define :attr:`class_counts` — the number of servers in each
    performance class, in server order — which ``create_file`` checks
    against every layout so striping-config server ids always index
    :attr:`servers` correctly.
    """

    #: Physical spacing between region extents on one server, so positional
    #: device models see distinct disk areas per region file.
    EXTENT_SPACING: int = 4 * GiB

    def __init__(
        self,
        sim: Simulator,
        servers: list[FileServer],
        network: NetworkModel,
        mds: MetadataCluster | None = None,
        mds_cache: bool = False,
    ):
        if not servers:
            raise ValueError("filesystem needs at least one server")
        self.sim = sim
        self.servers = list(servers)
        self.network = network
        #: The metadata service; one shard unless the caller passes a
        #: larger :class:`~repro.pfs.mds_cluster.MetadataCluster`.
        self.mds = mds if mds is not None else MetadataCluster(1)
        self.mds.attach(sim)
        #: Client-side layout cache (:class:`MetadataCache`); None (the
        #: default) keeps every consult on the MDS, byte-identical to
        #: builds without caching.
        self.mds_cache = MetadataCache(self) if mds_cache else None
        self._files: dict[str, PFSFile] = {}
        self._extent_bases: dict[tuple[str, int, int], int] = {}
        self._alloc_cursor: dict[int, int] = {}
        #: Per-server sorted free lists of released extent bases (filled by
        #: :meth:`free_extents`); reused lowest-first before the cursor grows.
        self._extent_free: dict[int, list[int]] = {}
        #: End-to-end integrity accounting; None until
        #: :meth:`enable_integrity` runs (corruption faults or replicated
        #: layouts turn it on), keeping integrity-off runs byte-identical.
        self.integrity: IntegrityAccounting | None = None
        #: Where every copy of every stripe column lives (natural homes
        #: and rebuild overrides).
        self.placement = PlacementMap(self)
        #: Alive/dead bookkeeping + failover routing (see repro.pfs.health).
        self.health = ServerHealth(self.class_counts)
        #: Filesystem-wide default RetryPolicy; None = no timeouts/retries.
        self.retry = None
        #: Retry timeout (seconds) -> the :class:`_Watchdog` of its timers.
        self._watchdogs: dict[float, _Watchdog] = {}
        #: Batched-submission counters, exported as ``pfs.batch.*`` metrics
        #: once any batch has been submitted.
        self.batch_stats = {
            "fast_batches": 0,
            "fast_columnar_batches": 0,
            "fast_requests": 0,
            "fast_subrequests": 0,
            "general_batches": 0,
            "general_requests": 0,
        }
        #: Fallback reason -> count for batches that took the general path.
        self.batch_fallbacks: dict[str, int] = {}
        #: Attached :class:`repro.online.rebuild.RebuildManager`, or None.
        self.rebuild = None
        #: Quorum-acknowledged writes: ack a replicated write once this many
        #: copies are durable, mirroring the rest asynchronously. None (the
        #: default) keeps fully synchronous mirroring, byte-identical to
        #: builds without quorum support.
        self.write_quorum: int | None = None
        self.quorum_stats = {
            "acks": 0,
            "trailing_mirrors": 0,
            "window_failures": 0,
            "mirror_failures": 0,
        }
        #: Callbacks fired (in registration order) by :meth:`fail_server` /
        #: :meth:`restore_server` with the server id, after health flips.
        self._failure_hooks: list = []
        self._restore_hooks: list = []

    @property
    def class_counts(self) -> tuple[int, ...]:
        """Servers per performance class; default: one class of everything."""
        return (len(self.servers),)

    @property
    def n_servers(self) -> int:
        return len(self.servers)

    def create_file(self, name: str, layout: LayoutPolicy) -> PFSFile:
        """Register and return a new file with ``layout``."""
        config = layout.config_at(0)
        if tuple(config.class_counts) != tuple(self.class_counts):
            raise ValueError(
                f"layout built for server classes {tuple(config.class_counts)} but "
                f"filesystem has {tuple(self.class_counts)}"
            )
        self.mds.register(name, layout)
        handle = PFSFile(self, name, layout)
        self._files[name] = handle
        return handle

    def open_file(self, name: str) -> PFSFile:
        """Return the handle of an existing file."""
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"no such file: {name!r}") from None

    def fail_server(self, server_id: int) -> bool:
        """Permanently crash server ``server_id`` at the current sim time.

        Marks it dead in :attr:`health` (rebuilding the failover route map),
        rejects new sub-requests at the server, and interrupts in-flight
        ones so their clients see :class:`ServerUnavailable` and can retry
        against survivors. Returns False if the server was already dead.
        Driven by :class:`repro.faults.injector.FaultInjector` or directly
        by tests.
        """
        if not self.health.mark_failed(server_id, self.sim.now):
            return False
        self.servers[server_id].mark_failed()
        for hook in self._failure_hooks:
            hook(server_id)
        return True

    def restore_server(self, server_id: int) -> bool:
        """A crashed server rejoins *empty* at the current sim time.

        Models a chassis swap: same identity and device class, no surviving
        data. The victim's extent table entries, allocation cursor, free
        list, and checksum tags are all dropped (nothing written before the
        crash is trusted), the server accepts sub-requests again, and the
        health layer routes to it immediately. Re-populating it is the
        rebuild manager's job, via the restore hooks. Returns False (a
        no-op) if the server was alive.
        """
        if not (0 <= server_id < self.n_servers):
            raise IndexError(f"server_id {server_id} out of range 0..{self.n_servers - 1}")
        if self.health.is_alive(server_id):
            return False
        stale = [key for key in self._extent_bases if key[2] == server_id]
        for key in stale:
            del self._extent_bases[key]
        self._alloc_cursor.pop(server_id, None)
        self._extent_free.pop(server_id, None)
        server = self.servers[server_id]
        server.mark_restored()
        if self.integrity is not None:
            server.checksums = ExtentChecksums(
                server.name, self.integrity.block_size, accounting=self.integrity
            )
        self.health.mark_restored(server_id)
        for hook in self._restore_hooks:
            hook(server_id)
        return True

    def _extent_base(self, file_name: str, region_id: int, server_id: int) -> int:
        """Physical base of a (file, region) extent on one server.

        New extents reuse the lowest freed base on the server before the
        allocation cursor advances, so abort/retry cycles (see
        :meth:`free_extents`) do not leak simulated capacity.
        """
        key = (file_name, region_id, server_id)
        base = self._extent_bases.get(key)
        if base is None:
            free = self._extent_free.get(server_id)
            if free:
                base = free.pop(0)
            else:
                base = self._alloc_cursor.get(server_id, 0)
                self._alloc_cursor[server_id] = base + self.EXTENT_SPACING
            self._extent_bases[key] = base
        return base

    def drop_extent(self, key: str, region_id: int, server_id: int) -> int | None:
        """Forget one extent and its checksum tags; returns its base or None.

        The base is not put back on the free list (see :meth:`free_extents`).
        """
        base = self._extent_bases.pop((key, region_id, server_id), None)
        if base is not None:
            checks = self.servers[server_id].checksums
            if checks is not None:
                checks.discard_range(base, self.EXTENT_SPACING)
        return base

    def free_extents(self, namespace: str) -> int:
        """Release every extent of ``namespace`` and of its own copies.

        ``namespace`` is a ``"{file}#g{generation}"`` extent namespace; its
        mirror and rebuilt keys (see :mod:`repro.pfs.placement`) are
        released with it, and no other namespace's. Freed bases go to
        per-server free lists for reuse, and any checksum tags inside the
        released windows are dropped so a future tenant of the space never
        inherits stale (possibly poisoned) tags. Returns the number of
        extents released. Used by the migrator to reclaim a partially
        written shadow generation after :class:`MigrationAborted`.
        """
        victims = [key for key in self._extent_bases if parse_extent_key(key[0])[0] == namespace]
        for key, region_id, server_id in victims:
            base = self.drop_extent(key, region_id, server_id)
            bisect.insort(self._extent_free.setdefault(server_id, []), base)
        return len(victims)

    # -- integrity & replication ------------------------------------------

    def enable_integrity(self, block_size: int = DEFAULT_BLOCK_SIZE) -> IntegrityAccounting:
        """Turn on end-to-end checksumming: every server gets CRC tags.

        Idempotent; returns the filesystem-wide accounting block. Installed
        automatically by corruption fault schedules
        (:class:`repro.faults.injector.FaultInjector`) and by replicated
        layouts at file creation/relayout.
        """
        if self.integrity is None:
            self.integrity = IntegrityAccounting(block_size)
            for server in self.servers:
                server.checksums = ExtentChecksums(
                    server.name, block_size, accounting=self.integrity
                )
        return self.integrity

    def _enable_replication(self) -> None:
        """Validate and arm the filesystem for a replicated layout."""
        if self.n_servers < 2:
            raise ValueError("region replication needs at least 2 servers")
        self.enable_integrity()

    def _mirror(self, server: FileServer, offset: int, size: int, trailing: bool) -> Generator:
        """A mirror write that counts a dead target instead of failing.

        The primary copy is durable, so a missing mirror is reduced
        redundancy — the rebuild manager's to restore, not the client's to
        observe (the engine would re-raise an unobserved failure). A
        synchronous mirror counts ``mirror_failures``; a quorum write's
        trailing mirror runs after the ack and counts ``window_failures``,
        a crash inside the ack-to-durable window. Writes never fail
        verification, and fault-free runs never enter the except arm, so
        the wrapper adds no events.
        """
        try:
            yield from server.serve(OpType.WRITE, offset, size)
        except ServerUnavailable:
            self.quorum_stats["window_failures" if trailing else "mirror_failures"] += 1

    # -- statistics -------------------------------------------------------

    def server_busy_times(self) -> dict[str, float]:
        """Disk busy seconds per server (the Figure 1(a) measurement)."""
        return {server.name: server.disk_busy_time for server in self.servers}

    def collect_metrics(self, registry, makespan: float | None = None) -> None:
        """Export per-server totals into an observability registry.

        ``registry`` is a :class:`repro.obs.metrics.MetricsRegistry` (duck
        typed so this layer stays import-independent of :mod:`repro.obs`).
        Records, per server: device busy seconds, NIC busy seconds, bytes
        served, sub-request count, and — when ``makespan`` is given —
        utilization (busy / makespan), plus file-level byte counters.
        """
        horizon = self.sim.now if makespan is None else makespan
        for server in self.servers:
            prefix = f"server.{server.name}"
            busy = server.disk_busy_time
            registry.gauge(f"{prefix}.busy_s").update_max(busy)
            registry.gauge(f"{prefix}.nic_busy_s").update_max(server.nic.monitor.snapshot())
            registry.counter(f"{prefix}.bytes_served").inc(server.bytes_served)
            registry.counter(f"{prefix}.subrequests").inc(server.subrequests_served)
            if horizon > 0:
                registry.gauge(f"{prefix}.utilization").update_max(busy / horizon)
        for handle in self._files.values():
            registry.counter("pfs.bytes_read").inc(handle.bytes_read)
            registry.counter("pfs.bytes_written").inc(handle.bytes_written)
        # Resilience counters appear only once something actually went
        # wrong, keeping fault-free metric exports byte-identical.
        if self.health.touched:
            for key, value in self.health.counters().items():
                registry.counter(f"faults.{key}").inc(value)
        # Batch-executor counters likewise appear only once a batch was
        # submitted, so non-batched runs export the same metric set as ever.
        if self.batch_stats["fast_batches"] or self.batch_stats["general_batches"]:
            for key, value in self.batch_stats.items():
                registry.counter(f"pfs.batch.{key}").inc(value)
            for reason, count in sorted(self.batch_fallbacks.items()):
                registry.counter(f"pfs.batch.fallback.{reason}").inc(count)
        # Integrity counters appear only once integrity is on and something
        # happened, so integrity-off exports keep the exact historical shape.
        if self.integrity is not None and self.integrity.touched:
            for key, value in self.integrity.counters().items():
                registry.counter(f"integrity.{key}").inc(value)
        # Rebuild/durability counters appear only when a rebuild manager is
        # attached; quorum counters only when quorum writes are enabled — so
        # rebuild-off, quorum-off runs export the exact historical set.
        if self.rebuild is not None:
            for key, value in self.rebuild.counters().items():
                registry.counter(f"rebuild.{key}").inc(value)
        if self.write_quorum is not None:
            for key, value in self.quorum_stats.items():
                registry.counter(f"pfs.quorum.{key}").inc(value)
        # Metadata-service counters (lookups, hops, per-shard journals).
        for key, value in self.mds.cluster_counters().items():
            registry.counter(f"mds.{key}").inc(value)
        # Client-cache counters appear only when the cache is enabled, so
        # cache-off runs export the exact historical metric set.
        if self.mds_cache is not None:
            for key, value in self.mds_cache.counters().items():
                registry.counter(f"mds.cache.{key}").inc(value)

    def reset_statistics(self) -> None:
        """Zero all per-server traffic statistics."""
        for server in self.servers:
            server.reset_statistics()


class HybridPFS(ParallelFileSystem):
    """The paper's testbed: M HServers (HDD) then N SServers (SSD)."""

    def __init__(
        self,
        sim: Simulator,
        hservers: list[FileServer],
        sservers: list[FileServer],
        network: NetworkModel,
        mds: MetadataCluster | None = None,
        mds_cache: bool = False,
    ):
        if not hservers and not sservers:
            raise ValueError("filesystem needs at least one server")
        self.hservers = list(hservers)
        self.sservers = list(sservers)
        super().__init__(
            sim, self.hservers + self.sservers, network, mds=mds, mds_cache=mds_cache
        )

    @property
    def class_counts(self) -> tuple[int, ...]:
        return (len(self.hservers), len(self.sservers))

    @property
    def n_hservers(self) -> int:
        return len(self.hservers)

    @property
    def n_sservers(self) -> int:
        return len(self.sservers)

    @classmethod
    def build(
        cls,
        sim: Simulator,
        n_hservers: int,
        n_sservers: int,
        network: NetworkModel | None = None,
        seed: int | np.random.Generator | None = 0,
        hdd_kwargs: dict | None = None,
        ssd_kwargs: dict | None = None,
        nic_parallelism: int = 4,
        disk_scheduler: str = "fifo",
        mds: MetadataCluster | None = None,
        mds_cache: bool = False,
    ) -> "HybridPFS":
        """Build the paper's testbed shape: M HDD servers + N SSD servers.

        Each server gets an independently seeded device so startup latencies
        are uncorrelated streams, as on real hardware. ``nic_parallelism``
        defaults to 4 concurrent flows per server NIC (full-duplex GigE with
        pipelined TCP streams), keeping the fabric off the critical path as
        the paper's cost model assumes.
        """
        if n_hservers < 0 or n_sservers < 0 or n_hservers + n_sservers == 0:
            raise ValueError("need n_hservers >= 0, n_sservers >= 0, and at least one server")
        network = network or NetworkModel()
        hdd_kwargs = dict(hdd_kwargs or {})
        ssd_kwargs = dict(ssd_kwargs or {})
        hservers = [
            FileServer(
                sim,
                HDDModel(seed=derive_rng(seed, "hserver", i), name=f"hserver{i}", **hdd_kwargs),
                network,
                name=f"hserver{i}",
                nic_parallelism=nic_parallelism,
                disk_scheduler=disk_scheduler,
            )
            for i in range(n_hservers)
        ]
        sservers = [
            FileServer(
                sim,
                SSDModel(seed=derive_rng(seed, "sserver", j), name=f"sserver{j}", **ssd_kwargs),
                network,
                name=f"sserver{j}",
                nic_parallelism=nic_parallelism,
                disk_scheduler=disk_scheduler,
            )
            for j in range(n_sservers)
        ]
        return cls(sim, hservers, sservers, network, mds=mds, mds_cache=mds_cache)
