"""Data migration between layout generations.

When the controller swaps a file's layout, the bytes written under the old
layout still live in the old generation's region files. The migrator moves
them through the ordinary PFS data path — chunked reads under the old
layout, writes under the new — so migration traffic competes with
foreground I/O on the same disk and NIC queues, which is precisely the cost
an online scheme must pay. A ``duty_cycle`` below 1.0 inserts idle gaps
between chunks (rate limiting), the standard knob for keeping migration off
the foreground's critical path.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass, field

from repro.online.pacing import check_pacing, duty_cycle_idle
from repro.pfs.filesystem import ParallelFileSystem, PFSFile
from repro.pfs.health import ServerUnavailable
from repro.pfs.layout import LayoutPolicy
from repro.pfs.placement import extent_namespace
from repro.util.units import MiB


class MigrationAborted(RuntimeError):
    """A migration pass stopped because a target/source server failed.

    The original file is untouched and stays readable under its old layout
    — chunks copy read-then-write, so an aborted pass never destroyed old
    bytes; the partially written shadow generation is simply abandoned.
    ``stats`` holds the progress up to the abort and ``cause`` the
    underlying :class:`~repro.pfs.health.ServerUnavailable`.
    """

    def __init__(self, message: str, stats: "MigrationStats", cause: ServerUnavailable):
        super().__init__(message)
        self.stats = stats
        self.cause = cause


@dataclass
class MigrationStats:
    """Accounting for one migration pass."""

    bytes_moved: int = 0
    chunks: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0
    ranges: list[tuple[int, int]] = field(default_factory=list)
    #: Shadow-generation extents released after an abort (0 on success).
    extents_released: int = 0

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at


class RegionMigrator:
    """Moves a byte range of one file between two layout generations."""

    def __init__(
        self,
        pfs: ParallelFileSystem,
        file_name: str,
        chunk_size: int = 4 * MiB,
        duty_cycle: float = 1.0,
    ):
        check_pacing(chunk_size, duty_cycle)
        self.pfs = pfs
        self.file_name = file_name
        self.chunk_size = chunk_size
        self.duty_cycle = duty_cycle

    def _shadow(self, layout: LayoutPolicy, generation: int) -> PFSFile:
        """A handle addressing one generation's extents directly.

        Bypasses the MDS namespace on purpose: the logical file keeps its
        registered handle; shadows only route data-path requests at the old
        or new generation for the copy.
        """
        shadow = PFSFile(self.pfs, self.file_name, layout)
        shadow.layout_generation = generation
        # Shadows fail fast: a dead source/target server must abort the
        # pass (MigrationAborted) rather than fail over — rerouted shadow
        # writes would silently invalidate the just-planned placement.
        shadow.failfast = True
        return shadow

    def migrate(
        self,
        old_layout: LayoutPolicy,
        old_generation: int,
        new_layout: LayoutPolicy,
        new_generation: int,
        ranges: list[tuple[int, int]],
        stats: MigrationStats | None = None,
    ) -> Generator:
        """Copy ``ranges`` (offset, size) old → new; yields inside the DES.

        Returns (as generator value) a :class:`MigrationStats`. Pass a
        pre-created ``stats`` to observe progress live (``finished_at``
        tracks the last completed chunk, so an interrupted pass still
        reports its partial volume).

        If a server backing either generation fails mid-pass (the chunk
        read or write raises :class:`ServerUnavailable`), the pass aborts
        with :class:`MigrationAborted` carrying the partial stats; the
        old-generation data is left intact, so the caller can keep the old
        layout or re-plan a degraded one and retry.
        """
        sim = self.pfs.sim
        if stats is None:
            stats = MigrationStats()
        stats.started_at = sim.now
        stats.finished_at = sim.now
        stats.ranges = list(ranges)
        source = self._shadow(old_layout, old_generation)
        target = self._shadow(new_layout, new_generation)
        for offset, size in ranges:
            if size <= 0:
                continue
            cursor = offset
            end = offset + size
            while cursor < end:
                step = min(self.chunk_size, end - cursor)
                chunk_started = sim.now
                try:
                    yield from source.serve_inline("read", cursor, step)
                    yield from target.serve_inline("write", cursor, step)
                except ServerUnavailable as exc:
                    stats.finished_at = sim.now
                    # The partially written shadow generation is abandoned —
                    # release its extents so abort/retry cycles reuse the
                    # space instead of leaking simulated capacity forever.
                    stats.extents_released = self.pfs.free_extents(
                        extent_namespace(self.file_name, new_generation)
                    )
                    raise MigrationAborted(
                        f"migration of {self.file_name!r} aborted at offset {cursor} "
                        f"after {stats.bytes_moved} bytes: {exc}",
                        stats,
                        exc,
                    ) from exc
                stats.bytes_moved += step
                stats.chunks += 1
                stats.finished_at = sim.now
                cursor += step
                idle = duty_cycle_idle(sim.now - chunk_started, self.duty_cycle)
                if idle > 0:
                    yield sim.timeout(idle)
        stats.finished_at = sim.now
        return stats


def changed_ranges(
    old_layout: LayoutPolicy,
    new_layout: LayoutPolicy,
    file_extent: int,
) -> list[tuple[int, int]]:
    """Byte ranges whose striping differs between two layouts.

    Walks both layouts' segment structure over ``[0, file_extent)`` and
    keeps the pieces where the stripe vectors differ — only those need to
    move; byte ranges whose (h, s) is unchanged stay in place (their
    physical placement is identical by construction of round-robin striping
    within a region file).

    Note the ranges are maximal *aligned-at-boundary* pieces: a piece ends
    wherever either layout changes region.
    """
    if file_extent <= 0:
        return []
    out: list[tuple[int, int]] = []
    cursor = 0
    while cursor < file_extent:
        old_seg = old_layout.segments(cursor, file_extent - cursor)[0]
        new_seg = new_layout.segments(cursor, file_extent - cursor)[0]
        piece_end = cursor + min(old_seg.size, new_seg.size)
        if tuple(old_seg.config.stripes) != tuple(new_seg.config.stripes) or (
            old_seg.offset - old_seg.region_base != new_seg.offset - new_seg.region_base
        ):
            if out and out[-1][0] + out[-1][1] == cursor:
                out[-1] = (out[-1][0], out[-1][1] + piece_end - cursor)
            else:
                out.append((cursor, piece_end - cursor))
        cursor = piece_end
    return out
