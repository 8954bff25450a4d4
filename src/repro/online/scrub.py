"""Background scrubbing: sweep stored data, verify checksums, self-heal.

Read-path repair (:meth:`PFSFile._serve_repairing`) only heals corruption
that foreground traffic happens to touch — and only on *primary* copies.
A :class:`Scrubber` is the background half of the integrity story: a DES
process that walks every allocated extent (primaries and replica copies),
re-reads the written stripe units through the ordinary server data path,
and repairs any mismatch from the extent's counterpart copy. Scrub and
repair traffic therefore contends with foreground I/O on the same disk and
NIC queues — exactly the background-traffic interference the
straggler-aware scheduling literature (Tavakoli et al., arXiv:1805.06156)
insists must be modeled, and the same ``duty_cycle`` rate-limiting knob as
:class:`~repro.online.migration.RegionMigrator` keeps it off the
foreground's critical path.

A mismatch with no clean counterpart (unreplicated region, or every copy
poisoned) is counted ``unrepairable`` and reported — the scrubber never
raises out of its sweep, and never leaves a detection unaccounted:
``IntegrityStats.silent_corruptions`` stays 0.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.devices.base import OpType
from repro.online.pacing import check_pacing, duty_cycle_idle, written_runs
from repro.pfs.filesystem import ParallelFileSystem
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.pfs.placement import parse_extent_key
from repro.simulate.engine import Process
from repro.util.units import MiB


@dataclass
class ScrubReport:
    """What one scrub sweep saw and did."""

    extents: int = 0
    chunks: int = 0
    bytes_scanned: int = 0
    mismatches: int = 0
    repaired: int = 0
    unrepairable: int = 0
    skipped_unavailable: int = 0
    started_at: float = 0.0
    finished_at: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.finished_at - self.started_at

    def summary(self) -> str:
        return (
            f"scrub: {self.extents} extents, {self.bytes_scanned} bytes in "
            f"{self.elapsed:.4f}s; {self.mismatches} mismatches, "
            f"{self.repaired} repaired, {self.unrepairable} unrepairable"
        )


class Scrubber:
    """Sweeps allocated extents, verifying and repairing stored stripe units.

    Args:
        pfs: the filesystem to scrub; its integrity layer must be enabled
            (it is, whenever corruption faults or replicated layouts exist).
        chunk_size: bytes verified per read — one queued device pass each.
        duty_cycle: fraction of wall time the scrubber may keep a device
            busy, exactly as in :class:`~repro.online.migration.RegionMigrator`;
            below 1.0 each chunk is followed by a proportional idle gap.
    """

    def __init__(
        self,
        pfs: ParallelFileSystem,
        chunk_size: int = 4 * MiB,
        duty_cycle: float = 1.0,
    ):
        check_pacing(chunk_size, duty_cycle)
        self.pfs = pfs
        self.chunk_size = chunk_size
        self.duty_cycle = duty_cycle
        self.last_report: ScrubReport | None = None

    # -- counterpart resolution -------------------------------------------

    def _counterpart(self, key: str, region_id: int, server_id: int):
        """The (server_id, base) holding the other copy of an extent, or None.

        A mirror bucket's counterpart is the first primary extent whose
        natural mirror lands in it; any other extent's is the first other
        copy of its column that exists. Resolution is pure bookkeeping
        (extent-table lookups) — the data movement still pays full I/O.
        """
        pfs = self.pfs
        placement = pfs.placement
        namespace, own_copy, born_on = parse_extent_key(key)
        if own_copy and born_on is None:
            for (ns, region, primary_id), base in pfs._extent_bases.items():
                if (
                    ns == namespace
                    and region == region_id
                    and placement.natural_home(primary_id, own_copy) == server_id
                ):
                    return primary_id, base
            return None
        column = server_id if born_on is None else born_on
        for copy in range(pfs.n_servers + 1):
            if copy != own_copy:
                located = placement.locate(namespace, region_id, column, copy)
                if located is not None:
                    return located
        return None

    # -- sweeping ----------------------------------------------------------

    def _written_runs(self, checks, base: int) -> list[tuple[int, int]]:
        """Contiguous (offset, size) runs of written bytes inside one extent."""
        return written_runs(checks, base, self.pfs.EXTENT_SPACING)

    def sweep(self, report: ScrubReport | None = None) -> Generator:
        """DES generator: one full verification pass over every extent.

        Returns (as generator value) a :class:`ScrubReport`, also kept as
        :attr:`last_report`. Spawn with ``sim.process(scrubber.sweep())`` or
        drain inline with ``sim.run(sim.process(scrubber.sweep()))``.
        """
        sim = self.pfs.sim
        acct = self.pfs.integrity
        if acct is None:
            raise RuntimeError(
                "scrubbing needs integrity enabled (ParallelFileSystem.enable_integrity)"
            )
        if report is None:
            report = ScrubReport()
        self.last_report = report
        report.started_at = sim.now
        report.finished_at = sim.now
        # Snapshot the extent table: extents allocated mid-sweep are the
        # next sweep's problem, and sorting keys the deterministic order.
        extents = sorted(self.pfs._extent_bases.items())
        for (namespace, region_id, server_id), base in extents:
            server = self.pfs.servers[server_id]
            checks = server.checksums
            if checks is None or server.is_failed:
                continue
            report.extents += 1
            for offset, size in self._written_runs(checks, base):
                cursor = offset
                end = offset + size
                while cursor < end:
                    step = min(self.chunk_size, end - cursor)
                    chunk_started = sim.now
                    tracer = sim.tracer
                    try:
                        yield from server.serve(OpType.READ, cursor, step)
                    except IntegrityError:
                        report.mismatches += 1
                        # Eager resolution: stands as unrepairable unless the
                        # repair below downgrades it to repaired.
                        acct.unrepairable += 1
                        yield from self._repair(
                            server_id, cursor, step, namespace, region_id, base, report
                        )
                    except ServerUnavailable:
                        report.skipped_unavailable += 1
                        break
                    if tracer is not None:
                        tracer.record(
                            chunk_started,
                            sim.now - chunk_started,
                            server.name,
                            "read",
                            cursor,
                            step,
                            "scrub",
                        )
                    report.chunks += 1
                    report.bytes_scanned += step
                    cursor += step
                    idle = duty_cycle_idle(sim.now - chunk_started, self.duty_cycle)
                    if idle > 0:
                        yield sim.timeout(idle)
        report.finished_at = sim.now
        return report

    def _repair(
        self,
        server_id: int,
        offset: int,
        size: int,
        namespace: str,
        region_id: int,
        extent_base: int,
        report: ScrubReport,
    ) -> Generator:
        """Heal one mismatching chunk from its counterpart copy."""
        sim = self.pfs.sim
        acct = self.pfs.integrity
        server = self.pfs.servers[server_id]
        counterpart = self._counterpart(namespace, region_id, server_id)
        if counterpart is not None:
            source_id, source_base = counterpart
            source = self.pfs.servers[source_id]
            acct.replica_reads += 1
            started = sim.now
            try:
                # Re-read the clean copy, then rewrite the poisoned chunk —
                # both through the ordinary data path, contending with
                # foreground I/O like any other client.
                yield from source.serve(
                    OpType.READ, source_base + (offset - extent_base), size
                )
                yield from server.serve(OpType.WRITE, offset, size)
            except IntegrityError:
                # The counterpart is poisoned too: its own fresh detection
                # joins the original chunk's as unrepairable.
                acct.unrepairable += 1
                report.unrepairable += 1
                return
            except ServerUnavailable:
                report.unrepairable += 1
                return
            acct.unrepairable -= 1
            acct.repaired += 1
            report.repaired += 1
            tracer = sim.tracer
            if tracer is not None:
                tracer.record(
                    started, sim.now - started, server.name, "write", offset, size, "repair"
                )
            return
        report.unrepairable += 1  # no counterpart; sweep already counted it

    def start(self) -> Process:
        """Spawn one sweep in the filesystem's simulator; returns the Process."""
        return self.pfs.sim.process(self.sweep(), name="scrubber")
