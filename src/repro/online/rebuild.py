"""Durability under permanent server loss: rebuild / re-replication.

A permanent data-server crash strips every stripe-column copy that lived on
the victim. Failover (:mod:`repro.pfs.health`) keeps the cluster *serving*,
but nothing restores *redundancy*: until the dead copies are re-created, a
second crash can destroy the last copy of a region. The
:class:`RebuildManager` closes that window the way HDA-style heterogeneous
arrays do (arXiv:1510.04868): it reacts to
:meth:`~repro.pfs.filesystem.ParallelFileSystem.fail_server` by enumerating
the victim's placements from the extent table (the simulation's placement
metadata), re-replicates each stripe column from a surviving copy onto a
class-aware live target, and installs the new location as a placement
override (:mod:`repro.pfs.placement`) — journaled two-phase
(``rebuild_begin``/``rebuild_commit``) through the metadata WAL, so a crash
mid-copy recovers with the *old* sites and the half-written extent is
garbage, never a committed location.

Rebuild traffic flows through the ordinary server data path — it contends
with foreground I/O on the same disk and NIC queues — throttled by the
shared :mod:`repro.online.pacing` ``duty_cycle`` discipline the scrubber
and migrator use. Server *rejoin* (``restore:<server>@<t>`` faults) wipes
the victim clean, revives it, and triggers a backfill: placements rebuilt
elsewhere migrate home and their override entries dissolve.

Everything observable lands in :class:`DurabilityStats`: regions at
reduced/zero redundancy over time, bytes-at-risk exposure windows,
time-to-restored-redundancy (MTTR) per crash, and typed
:class:`DataLossError` accounting when the last copy of written data dies
before rebuild reaches it.

Determinism: intake scans a sorted extent-table snapshot, the work queue is
FIFO, target selection walks sorted live-server lists under plain cursors,
and no RNG is involved — rebuild runs are bit-identical serial or under
``--jobs N``.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Generator
from dataclasses import dataclass, field

from repro.devices.base import OpType
from repro.online.pacing import check_pacing, duty_cycle_idle, written_runs
from repro.pfs.filesystem import ParallelFileSystem
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.pfs.mds_cluster import MetadataUnavailable
from repro.pfs.placement import Placement, extent_key, parse_extent_key, parse_namespace
from repro.util.units import MiB


class DataLossError(RuntimeError):
    """The last copy of written data died before rebuild re-replicated it.

    Raised at failure-intake time when ``fail_on_loss`` is set on the
    manager (the CLI's ``run-ior --rebuild`` mode); otherwise the loss is
    only counted (``data_loss_events`` / ``data_lost_bytes`` in
    :class:`DurabilityStats`) so chaos sweeps complete and gate on the
    totals.
    """

    def __init__(self, message: str, lost_bytes: int = 0):
        super().__init__(message)
        self.lost_bytes = int(lost_bytes)


@dataclass(frozen=True)
class RebuildConfig:
    """Picklable rebuild knobs (threaded through RunJob / the harness)."""

    duty_cycle: float = 1.0
    chunk_size: int = 4 * MiB
    fail_on_loss: bool = False


@dataclass(frozen=True)
class DurabilityStats:
    """Picklable end-of-run durability summary (``RunResult.durability``)."""

    regions_tracked: int = 0
    regions_degraded_final: int = 0
    regions_lost: int = 0
    placements_rebuilt: int = 0
    bytes_rebuilt: int = 0
    chunks: int = 0
    data_loss_events: int = 0
    data_lost_bytes: int = 0
    at_risk_bytes_peak: int = 0
    at_risk_bytes_final: int = 0
    exposure_seconds: float = 0.0
    exposure_byte_seconds: float = 0.0
    crash_batches: int = 0
    restore_batches: int = 0
    #: Seconds from each crash to full restoration of the redundancy it
    #: stripped (only crashes whose every placement was restored loss-free).
    mttr_samples: tuple[float, ...] = ()
    quorum_acks: int = 0
    trailing_mirrors: int = 0
    quorum_window_failures: int = 0
    #: ``(time, regions_reduced, regions_zero, at_risk_bytes)`` after every
    #: durability state change, in time order.
    timeline: tuple[tuple[float, int, int, int], ...] = ()

    @property
    def mttr_mean(self) -> float:
        return sum(self.mttr_samples) / len(self.mttr_samples) if self.mttr_samples else 0.0

    @property
    def mttr_max(self) -> float:
        return max(self.mttr_samples) if self.mttr_samples else 0.0

    @property
    def fully_redundant(self) -> bool:
        """Every tracked region ended at full redundancy with zero loss."""
        return self.regions_degraded_final == 0 and self.regions_lost == 0


@dataclass
class _Batch:
    """One intake event's worth of work (a crash or a restore backfill)."""

    kind: str
    started_at: float
    remaining: set = field(default_factory=set)
    lost: bool = False


class RebuildManager:
    """Re-replicates placements lost to server crashes; backfills rejoins.

    Attach after the filesystem (and any fault injector) exists::

        manager = RebuildManager(pfs, duty_cycle=0.25)
        ...
        sim.run(done)                      # foreground workload
        sim.run(sim.process(manager.drain()))  # finish outstanding rebuild
        result = manager.stats()

    Attaching sets ``pfs.rebuild`` (which also vetoes the batched fast path
    — rebuild runs take the general tier) and registers failure/restore
    hooks on the filesystem.
    """

    def __init__(
        self,
        pfs: ParallelFileSystem,
        duty_cycle: float = 1.0,
        chunk_size: int = 4 * MiB,
        fail_on_loss: bool = False,
    ):
        check_pacing(chunk_size, duty_cycle)
        if pfs.rebuild is not None:
            raise RuntimeError("filesystem already has a RebuildManager attached")
        self.pfs = pfs
        self.duty_cycle = duty_cycle
        self.chunk_size = chunk_size
        self.fail_on_loss = fail_on_loss
        # Written-run geometry (and loss detection) reads the per-server
        # checksum tags; replicated layouts arm them at file creation, but a
        # manager attached to a replicas=1 filesystem still needs them to
        # account what a crash destroyed.
        pfs.enable_integrity()
        pfs.rebuild = self
        pfs._failure_hooks.append(self._on_failure)
        pfs._restore_hooks.append(self._on_restore)
        # Work state.
        self._queue: deque[Placement] = deque()
        self._queued: set[Placement] = set()
        self._stalled: list[Placement] = []
        self._worker = None
        self._idle = None
        # Durability accounting.
        self._at_risk: dict[Placement, int] = {}
        self._at_risk_total = 0
        self._missing_by_region: dict[tuple[str, int], set[Placement]] = {}
        self._zero_regions: set[tuple[str, int]] = set()
        self._regions_seen: set[tuple[str, int]] = set()
        self._batches: dict[int, _Batch] = {}
        self._batch_of: dict[Placement, int] = {}
        self._next_batch = 0
        self._target_cursor: dict[int, int] = {}
        self._last_t = pfs.sim.now
        self.placements_rebuilt = 0
        self.bytes_rebuilt = 0
        self.chunks = 0
        self.data_loss_events = 0
        self.data_lost_bytes = 0
        self.at_risk_peak = 0
        self.exposure_seconds = 0.0
        self.exposure_byte_seconds = 0.0
        self.crash_batches = 0
        self.restore_batches = 0
        self.mttr_samples: list[float] = []
        self.aborted_copies = 0
        self._timeline: list[tuple[float, int, int, int]] = []

    # -- exposure accounting ------------------------------------------------

    def _integrate(self) -> None:
        """Advance the exposure integrals to the current instant."""
        now = self.pfs.sim.now
        dt = now - self._last_t
        if dt > 0 and self._at_risk_total > 0:
            self.exposure_seconds += dt
            self.exposure_byte_seconds += self._at_risk_total * dt
        self._last_t = now

    def _mark_timeline(self) -> None:
        point = (
            self.pfs.sim.now,
            sum(1 for missing in self._missing_by_region.values() if missing),
            len(self._zero_regions),
            self._at_risk_total,
        )
        if self._timeline and self._timeline[-1][0] == point[0]:
            self._timeline[-1] = point
        else:
            self._timeline.append(point)

    # -- placement resolution ----------------------------------------------

    def _column_copies(self, placement: Placement) -> int:
        """Replica count of the placement's region, or 0 if it went stale."""
        parsed = parse_namespace(placement.extent_ns)
        if parsed is None:
            return 0
        name, generation = parsed
        handle = self.pfs._files.get(name)
        if handle is None or handle.layout_generation != generation:
            return 0
        copies = handle.layout.replica_count(placement.region_id)
        return copies if placement.copy < copies else 0

    def _extents(self, placement: Placement, copies: int) -> list[tuple[int, int, int]]:
        """``(copy, server, base)`` of every existing copy of the column."""
        ns, region_id, server, _ = placement
        locate = self.pfs.placement.locate
        return [
            (copy, *located)
            for copy in range(copies)
            if (located := locate(ns, region_id, server, copy)) is not None
        ]

    def _column_ranges(self, placement: Placement, copies: int) -> list[tuple[int, int]]:
        """Column-relative written ``(offset, size)`` runs of the placement.

        Geometry comes from the first copy (lowest index) whose extent still
        exists — alive or dead: a dead server's checksum tags are the
        bookkeeping record of what was placed, exactly what real placement
        metadata would hold. Copy 0 and rebuilt (``~b``) extents are
        exclusive to the column and exact; a shared mirror bucket may
        overshoot onto sibling columns' offsets, a conservative (never
        lossy) approximation.
        """
        for _, server_id, base in self._extents(placement, copies):
            checks = self.pfs.servers[server_id].checksums
            if checks is None:
                continue
            runs = written_runs(checks, base, self.pfs.EXTENT_SPACING)
            if runs:
                return [(offset - base, size) for offset, size in runs]
        return []

    def _live_sources(
        self, placement: Placement, copies: int, exclude: int | None = None
    ) -> list[tuple[int, int]]:
        """Copies of the column on live servers with an extent, in copy order."""
        alive = self.pfs.health.is_alive
        return [
            (server_id, base)
            for _, server_id, base in self._extents(placement, copies)
            if server_id != exclude and alive(server_id)
        ]

    def _pick_target(self, placement: Placement, copies: int) -> tuple[int, str, bool] | None:
        """Choose a live target: ``(server, extent_ns, natural)``, or None.

        The natural home wins whenever it is alive (backfill dissolves the
        override). Otherwise targets are class-aware — live servers of the
        natural home's class first, then any live server — excluding hosts
        of the column's other copies, walked with a per-class round-robin
        cursor for deterministic spread.
        """
        pfs = self.pfs
        health = pfs.health
        natural = pfs.placement.natural_home(placement.server, placement.copy)
        if health.is_alive(natural):
            return natural, extent_key(placement.extent_ns, placement.copy), True
        holders = {
            server_id
            for copy, server_id, _ in self._extents(placement, copies)
            if copy != placement.copy
        }
        cls = health.class_of(natural)
        same = [
            s
            for s in range(pfs.n_servers)
            if health.is_alive(s) and s not in holders and health.class_of(s) == cls
        ]
        other = [
            s
            for s in range(pfs.n_servers)
            if health.is_alive(s) and s not in holders and health.class_of(s) != cls
        ]
        for pool_cls, pool in ((cls, same), (-1, other)):
            if pool:
                cursor = self._target_cursor.get(pool_cls, 0)
                self._target_cursor[pool_cls] = cursor + 1
                rebuilt = extent_key(placement.extent_ns, placement.copy, placement.server)
                return pool[cursor % len(pool)], rebuilt, False
        return None

    # -- intake -------------------------------------------------------------

    def _open_batch(self, kind: str) -> int:
        batch_id = self._next_batch
        self._next_batch += 1
        self._batches[batch_id] = _Batch(kind=kind, started_at=self.pfs.sim.now)
        if kind == "crash":
            self.crash_batches += 1
        else:
            self.restore_batches += 1
        return batch_id

    def _enqueue(self, placement: Placement, bytes_at_risk: int, batch_id: int) -> None:
        if placement in self._queued:
            return
        self._queued.add(placement)
        self._queue.append(placement)
        self._batch_of[placement] = batch_id
        self._batches[batch_id].remaining.add(placement)
        if bytes_at_risk > 0 and placement not in self._at_risk:
            self._at_risk[placement] = bytes_at_risk
            self._at_risk_total += bytes_at_risk
            self.at_risk_peak = max(self.at_risk_peak, self._at_risk_total)
        region = (placement.extent_ns, placement.region_id)
        self._regions_seen.add(region)
        self._missing_by_region.setdefault(region, set()).add(placement)

    def _resolve(self, placement: Placement, restored: bool) -> None:
        """A placement left the pending set (rebuilt, lost, or gone stale)."""
        self._queued.discard(placement)
        risk = self._at_risk.pop(placement, 0)
        if risk:
            self._at_risk_total -= risk
        region = (placement.extent_ns, placement.region_id)
        missing = self._missing_by_region.get(region)
        if missing is not None:
            missing.discard(placement)
        batch_id = self._batch_of.pop(placement, None)
        if batch_id is not None:
            batch = self._batches[batch_id]
            batch.remaining.discard(placement)
            if not restored:
                batch.lost = True
            if not batch.remaining:
                if batch.kind == "crash" and not batch.lost:
                    self.mttr_samples.append(self.pfs.sim.now - batch.started_at)
                del self._batches[batch_id]

    def _record_loss(self, placement: Placement, lost_bytes: int) -> None:
        self.data_loss_events += 1
        self.data_lost_bytes += lost_bytes
        self._zero_regions.add((placement.extent_ns, placement.region_id))

    def _victim_placements(self, victim: int) -> list[tuple[Placement, int]]:
        """Logical placements living on ``victim``, with column replica counts.

        Enumerated from a sorted extent-table snapshot: plain extents are
        copy-0 placements, rebuilt (``~b``) extents carry their identity in
        the namespace, and a shared mirror bucket expands to every config
        server whose copy currently lands in it. Stale generations and
        unregistered (shadow) namespaces are skipped.
        """
        out: list[tuple[Placement, int]] = []
        seen: set[Placement] = set()
        pfs = self.pfs
        for key, region_id, server_id in sorted(pfs._extent_bases):
            if server_id != victim:
                continue
            namespace, copy, born_on = parse_extent_key(key)
            if born_on is not None:
                candidates = [Placement(namespace, region_id, born_on, copy)]
            elif copy:
                candidates = [
                    Placement(namespace, region_id, s, copy)
                    for s in range(pfs.n_servers)
                    if pfs.placement.resolve(namespace, region_id, s, copy)[0] == victim
                ]
            else:
                candidates = [Placement(namespace, region_id, victim, 0)]
            for placement in candidates:
                if placement in seen:
                    continue
                seen.add(placement)
                copies = self._column_copies(placement)
                if copies == 0:
                    continue
                # The candidate must actually resolve to the victim (a
                # bucket expansion can also surface overridden placements).
                located = self.pfs.placement.locate(*placement)
                if located is None or located[0] != victim:
                    continue
                out.append((placement, copies))
        return out

    def _on_failure(self, victim: int) -> None:
        """fail_server hook: synchronous intake of the victim's placements."""
        self._integrate()
        victims = self._victim_placements(victim)
        if victims:
            batch_id = self._open_batch("crash")
            lost_total = 0
            for placement, copies in victims:
                ranges = self._column_ranges(placement, copies)
                risk = sum(size for _, size in ranges)
                if risk > 0 and not self._live_sources(placement, copies):
                    # The victim held the last copy of written column data.
                    self._record_loss(placement, risk)
                    lost_total += risk
                    continue
                self._enqueue(placement, risk, batch_id)
            if not self._batches[batch_id].remaining:
                del self._batches[batch_id]
            if lost_total and self.fail_on_loss:
                self._mark_timeline()
                raise DataLossError(
                    f"server {victim} held the last copy of {lost_total} written "
                    f"bytes; rebuild cannot restore them",
                    lost_bytes=lost_total,
                )
        if self._stalled:
            # A new failure changes the live-target landscape; retry.
            self._requeue_stalled()
        self._mark_timeline()
        self._kick()

    def _on_restore(self, server_id: int) -> None:
        """restore_server hook: backfill placements homed on the rejoiner."""
        self._integrate()
        placement_map = self.pfs.placement
        homed = [
            Placement(*key)
            for key in sorted(placement_map.overrides)
            if placement_map.natural_home(key[2], key[3]) == server_id
        ]
        if homed:
            batch_id = self._open_batch("restore")
            for placement in homed:
                # Redundancy is already full (the override location is
                # live); the backfill moves data home without an at-risk
                # window of its own.
                self._enqueue(placement, 0, batch_id)
            if not self._batches[batch_id].remaining:
                del self._batches[batch_id]
        if self._stalled:
            self._requeue_stalled()
        self._mark_timeline()
        self._kick()

    def _requeue_stalled(self) -> None:
        stalled, self._stalled = self._stalled, []
        for placement in stalled:
            if placement in self._queued:
                self._queue.append(placement)

    # -- the worker ---------------------------------------------------------

    def _kick(self) -> None:
        if self._worker is None and self._queue:
            sim = self.pfs.sim
            self._idle = sim.event()
            self._worker = sim.process(self._run(), name="rebuild")

    def _run(self) -> Generator:
        while self._queue:
            placement = self._queue.popleft()
            if placement not in self._queued:
                continue
            yield from self._rebuild_placement(placement)
        self._worker = None
        self._integrate()
        if self._idle is not None and not self._idle.triggered:
            self._idle.succeed()

    def _journal(self, record, placement: Placement, **kwargs) -> None:
        """Journal a rebuild record through the MDS WAL, if reachable.

        ``record`` is one of the metadata service's ``record_rebuild_*``
        methods. Shadow namespaces (unregistered) and a fully dark metadata cluster
        skip the record — rebuild must restore redundancy even while the
        MDS is recovering; the commit's override map is re-journaled by the
        next committed move.
        """
        parsed = parse_namespace(placement.extent_ns)
        if parsed is None:
            return
        try:
            record(*parsed, placement.region_id, placement.server, placement.copy, **kwargs)
        except (FileNotFoundError, MetadataUnavailable):
            return

    def _rebuild_placement(self, placement: Placement) -> Generator:
        pfs = self.pfs
        sim = pfs.sim
        copies = self._column_copies(placement)
        if copies == 0:
            # The file is gone or relaid out: the generation's extents are
            # garbage, not missing redundancy.
            self._resolve(placement, restored=True)
            return
        ranges = self._column_ranges(placement, copies)
        chosen = self._pick_target(placement, copies)
        if chosen is None:
            # No live server can take the copy right now; park it until the
            # next failure/restore event changes the landscape.
            self._stalled.append(placement)
            return
        target, target_ns, natural = chosen
        # Where the placement resolves *before* this move commits — the old
        # extent is retired on success (exclusive namespaces only; a shared
        # mirror bucket still backs sibling columns).
        old = pfs.placement.locate(*placement)
        sources = self._live_sources(placement, copies, exclude=target)
        if not sources:
            if any(size > 0 for _, size in ranges):
                lost = sum(size for _, size in ranges)
                self._record_loss(placement, lost)
                self._resolve(placement, restored=False)
                self._mark_timeline()
                if self.fail_on_loss:
                    raise DataLossError(
                        f"last copy of {placement.extent_ns} region "
                        f"{placement.region_id} died before rebuild reached it",
                        lost_bytes=lost,
                    )
                return
            # Nothing written: re-creating the (empty) placement is free.
        self._journal(self.pfs.mds.record_rebuild_begin, placement, target=target)
        target_server = pfs.servers[target]
        target_base = pfs._extent_base(target_ns, placement.region_id, target)
        target_checks = target_server.checksums
        todo = ranges
        if target_checks is not None and todo:
            existing = [
                (offset - target_base, size)
                for offset, size in written_runs(
                    target_checks, target_base, pfs.EXTENT_SPACING
                )
            ]
            # Never clobber bytes already durable at the target (foreground
            # writes that landed after a rejoin are newer than any copy).
            todo = _subtract_runs(todo, existing)
        copied = 0
        lost = 0
        if sources:
            tracer = sim.tracer
            for rel_offset, size in todo:
                cursor = rel_offset
                end = rel_offset + size
                while cursor < end:
                    step = min(self.chunk_size, end - cursor)
                    chunk_started = sim.now
                    try:
                        if (yield from self._read_clean_chunk(sources, cursor, step)):
                            pieces = [(cursor, step)]
                        else:
                            pieces = yield from self._salvage_blocks(sources, cursor, step)
                        for offset, length in pieces:
                            yield from target_server.serve(
                                OpType.WRITE, target_base + offset, length
                            )
                    except ServerUnavailable:
                        # Source or target died mid-copy: journal the abort,
                        # retire the partial target extent unless it is a
                        # mirror bucket shared with sibling columns (the
                        # retry overwrites those bytes), and requeue — the
                        # next attempt re-selects live endpoints (or
                        # accounts the loss).
                        self._journal(self.pfs.mds.record_rebuild_abort, placement)
                        self.aborted_copies += 1
                        if not (natural and placement.copy):
                            pfs.drop_extent(target_ns, placement.region_id, target)
                        if placement in self._queued:
                            self._queue.append(placement)
                        return
                    lost += step - sum(length for _, length in pieces)
                    for offset, length in pieces:
                        copied += length
                        self.chunks += 1
                        if tracer is not None:
                            tracer.record(
                                chunk_started,
                                sim.now - chunk_started,
                                target_server.name,
                                "write",
                                target_base + offset,
                                length,
                                "rebuild",
                            )
                    cursor += step
                    idle = duty_cycle_idle(sim.now - chunk_started, self.duty_cycle)
                    if idle > 0:
                        yield sim.timeout(idle)
        # Commit: swap the placement's location in one atomic (journaled)
        # step, then retire the old extent if the placement owned it alone.
        self._journal(
            self.pfs.mds.record_rebuild_commit, placement, target=target, natural=natural
        )
        if natural:
            pfs.placement.overrides.pop(placement, None)
        else:
            pfs.placement.overrides[placement] = target
        if old is not None and old[0] != target:
            self._retire_extent(placement, old[0])
        self._integrate()
        self.placements_rebuilt += 1
        self.bytes_rebuilt += copied
        if lost:
            self._record_loss(placement, lost)
        self._resolve(placement, restored=not lost)
        self._mark_timeline()
        if lost and self.fail_on_loss:
            raise DataLossError(
                f"every live copy of {placement.extent_ns} region "
                f"{placement.region_id} failed verification for {lost} bytes",
                lost_bytes=lost,
            )

    def _read_clean_chunk(self, sources: list[tuple[int, int]], offset: int, size: int):
        """DES generator: read one chunk from the first copy that verifies.

        A poisoned copy stands as an unrepairable detection, left for the
        scrubber as in read repair, and the next live copy is tried.
        Returns False when no copy is clean; the caller then salvages the
        chunk block by block (:meth:`_salvage_blocks`).
        """
        pfs = self.pfs
        for source_id, source_base in sources:
            try:
                yield from pfs.servers[source_id].serve(
                    OpType.READ, source_base + offset, size
                )
            except IntegrityError:
                pfs.integrity.unrepairable += 1
                continue
            return True
        return False

    def _salvage_blocks(self, sources: list[tuple[int, int]], offset: int, size: int):
        """DES generator: retry a chunk no copy verifies, block by block.

        Returns the column-relative runs (adjacent blocks merged) that some
        copy verified; the blocks left out have no clean copy anywhere.
        """
        block_size = self.pfs.integrity.block_size
        clean: list[tuple[int, int]] = []
        cursor = offset
        end = offset + size
        while cursor < end:
            step = min(end, (cursor // block_size + 1) * block_size) - cursor
            if (yield from self._read_clean_chunk(sources, cursor, step)):
                if clean and sum(clean[-1]) == cursor:
                    clean[-1] = (clean[-1][0], clean[-1][1] + step)
                else:
                    clean.append((cursor, step))
            cursor += step
        return clean

    def _retire_extent(self, placement: Placement, server_id: int) -> None:
        """Drop the placement's extent on ``server_id`` if it owns it alone."""
        ns, region_id, server, copy = placement
        self.pfs.drop_extent(extent_key(ns, copy, server), region_id, server_id)
        if copy == 0:
            self.pfs.drop_extent(ns, region_id, server_id)

    # -- draining & reporting ----------------------------------------------

    @property
    def pending(self) -> int:
        """Placements still awaiting rebuild (queued or stalled)."""
        return len(self._queued)

    @property
    def active(self) -> bool:
        return self._worker is not None

    def drain(self) -> Generator:
        """DES generator: wait until the work queue is empty and idle.

        Stalled placements (no live target anywhere) do not block the drain
        — they can only move when a future fault event changes the cluster,
        and a drain is the end of the run.
        """
        while self._worker is not None:
            yield self._idle
        self._integrate()
        return self.stats()

    def counters(self) -> dict[str, int | float]:
        """Flat numeric snapshot exported as ``rebuild.*`` metrics."""
        return {
            "placements_rebuilt": self.placements_rebuilt,
            "bytes_rebuilt": self.bytes_rebuilt,
            "chunks": self.chunks,
            "aborted_copies": self.aborted_copies,
            "pending": self.pending,
            "data_loss_events": self.data_loss_events,
            "data_lost_bytes": self.data_lost_bytes,
            "at_risk_bytes": self._at_risk_total,
            "at_risk_bytes_peak": self.at_risk_peak,
            "exposure_seconds": self.exposure_seconds,
            "crash_batches": self.crash_batches,
            "restore_batches": self.restore_batches,
        }

    def stats(self) -> DurabilityStats:
        """Picklable end-of-run summary (integrates exposure to now)."""
        self._integrate()
        quorum = self.pfs.quorum_stats
        return DurabilityStats(
            regions_tracked=len(self._regions_seen),
            regions_degraded_final=sum(
                1 for missing in self._missing_by_region.values() if missing
            ),
            regions_lost=len(self._zero_regions),
            placements_rebuilt=self.placements_rebuilt,
            bytes_rebuilt=self.bytes_rebuilt,
            chunks=self.chunks,
            data_loss_events=self.data_loss_events,
            data_lost_bytes=self.data_lost_bytes,
            at_risk_bytes_peak=self.at_risk_peak,
            at_risk_bytes_final=self._at_risk_total,
            exposure_seconds=self.exposure_seconds,
            exposure_byte_seconds=self.exposure_byte_seconds,
            crash_batches=self.crash_batches,
            restore_batches=self.restore_batches,
            mttr_samples=tuple(self.mttr_samples),
            quorum_acks=quorum["acks"],
            trailing_mirrors=quorum["trailing_mirrors"],
            quorum_window_failures=quorum["window_failures"],
            timeline=tuple(self._timeline),
        )


def quorum_only_stats(pfs: ParallelFileSystem) -> DurabilityStats:
    """Durability summary for a quorum-writes run with no rebuild manager."""
    quorum = pfs.quorum_stats
    return DurabilityStats(
        quorum_acks=quorum["acks"],
        trailing_mirrors=quorum["trailing_mirrors"],
        quorum_window_failures=quorum["window_failures"],
    )


def _subtract_runs(
    runs: list[tuple[int, int]], existing: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Interval subtraction: parts of ``runs`` not covered by ``existing``."""
    if not existing:
        return runs
    out: list[tuple[int, int]] = []
    bounds = sorted(existing)
    for offset, size in runs:
        cursor = offset
        end = offset + size
        for b_off, b_size in bounds:
            b_end = b_off + b_size
            if b_end <= cursor or b_off >= end:
                continue
            if b_off > cursor:
                out.append((cursor, b_off - cursor))
            cursor = max(cursor, b_end)
            if cursor >= end:
                break
        if cursor < end:
            out.append((cursor, end - cursor))
    return out
