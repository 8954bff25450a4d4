"""Metadata namespace store: file → layout, generations, and lookup cost.

In a real PFS a client contacts the MDS once per open and, under HARL, the
MDS consults the RST per request to return region stripe info (Sec. III-F).
The paper worries about exactly this: too many regions inflate "metadata
management overhead and compromise the final I/O performance" (Sec. III-C),
which is why Algorithm 1 bounds the region count.

The model here makes that overhead real:

- each lookup costs ``lookup_latency`` plus ``per_region_latency`` per
  level of a binary search over the file's region table (log2 of the
  region count) — the RST lookup's actual data-structure cost
  (:meth:`MetadataServer.lookup_time`);
- lookups of concurrent clients contend on each shard's service capacity
  (``parallelism`` simultaneous lookups), so metadata pressure grows with
  client count, as on a real MDS.

A :class:`MetadataServer` is the pure namespace registry. The filesystem's
metadata service is a :class:`~repro.pfs.mds_cluster.MetadataCluster`,
whose shards are journaled ``MetadataServer`` subclasses with a DES
service queue each; the cluster runs the queued lookup path.

Crash consistency (DESIGN.md §11): with :meth:`MetadataServer.enable_journal`
on, every namespace mutation is framed into a write-ahead
:class:`~repro.pfs.journal.MetadataJournal` record *before* it applies, and
:meth:`MetadataServer.recover` rebuilds an equal namespace from any clean
prefix of the journal bytes — torn tails are discarded, and migrations that
began but never committed roll back to the pre-migration layout.
"""

from __future__ import annotations

import math

from repro.pfs.journal import (
    MetadataJournal,
    RecoveryReport,
    canonical_spec,
    layout_from_spec,
    layout_to_spec,
)
from repro.pfs.layout import LayoutPolicy
from repro.util.validation import check_non_negative


class MetadataServer:
    """Namespace of files → layout policies, with modeled lookup costs."""

    def __init__(
        self,
        lookup_latency: float = 3.0e-5,
        per_region_latency: float = 2.0e-6,
        parallelism: int = 8,
        profile=None,
    ):
        check_non_negative("lookup_latency", lookup_latency)
        check_non_negative("per_region_latency", per_region_latency)
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        #: Optional :class:`repro.devices.profiles.MdsProfile`. None (the
        #: default) keeps the two legacy constants below, bit-identical to
        #: builds that predate calibrated profiles; a profile prices each
        #: op class (open/stat/relayout) separately.
        self.profile = profile
        if profile is not None:
            lookup_latency = profile.open_latency
            per_region_latency = profile.consult_per_level
        self.lookup_latency = float(lookup_latency)
        self.per_region_latency = float(per_region_latency)
        self.parallelism = int(parallelism)
        self._files: dict[str, LayoutPolicy] = {}
        self._generations: dict[str, int] = {}
        self.lookup_count = 0
        #: Write-ahead journal; None (default) leaves every mutation
        #: unjournaled and the MDS behaviorally identical to before.
        self.journal: MetadataJournal | None = None
        self._pending_migrations: dict[str, tuple[int, LayoutPolicy]] = {}
        #: Committed replica-location overrides installed by the rebuild
        #: manager: ``(name, generation, region, server, copy) -> target``.
        #: Empty until a rebuild commits, so rebuild-off runs never touch it.
        self._replica_sites: dict[tuple[str, int, int, int, int], int] = {}
        #: In-flight (journaled but uncommitted) rebuild intents; a crash
        #: between begin and commit recovers *without* the move.
        self._pending_rebuilds: dict[tuple[str, int, int, int, int], int] = {}
        #: Set by :meth:`recover` on the recovered instance.
        self.last_recovery: RecoveryReport | None = None

    # -- namespace ---------------------------------------------------------

    def register(self, name: str, layout: LayoutPolicy) -> None:
        """Create a file entry. Raises ``FileExistsError`` on duplicates."""
        if name in self._files:
            raise FileExistsError(f"file already exists in namespace: {name!r}")
        if self.journal is not None:
            self.journal.append(
                "register", name=name, generation=0, layout=layout_to_spec(layout)
            )
        self._files[name] = layout
        self._generations[name] = 0

    def unregister(self, name: str) -> None:
        """Remove a file entry. Raises ``FileNotFoundError`` if absent."""
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name!r}")
        if self.journal is not None:
            self.journal.append("unregister", name=name)
        del self._files[name]
        self._generations.pop(name, None)
        self._pending_migrations.pop(name, None)
        if self._replica_sites:
            self._replica_sites = {k: v for k, v in self._replica_sites.items() if k[0] != name}
        if self._pending_rebuilds:
            self._pending_rebuilds = {
                k: v for k, v in self._pending_rebuilds.items() if k[0] != name
            }

    def lookup(self, name: str) -> LayoutPolicy:
        """Return the layout for ``name``, counting the lookup."""
        self.lookup_count += 1
        try:
            return self._files[name]
        except KeyError:
            raise FileNotFoundError(f"no such file: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._files

    def files(self) -> list[str]:
        """Registered file names, sorted."""
        return sorted(self._files)

    def generation_of(self, name: str) -> int:
        """Committed layout generation of ``name`` (0 = as created)."""
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name!r}")
        return self._generations.get(name, 0)

    def namespace_state(self) -> dict[str, tuple[int, str]]:
        """Canonical ``{name: (generation, layout-spec-json)}`` snapshot.

        The comparison key of the crash-recovery property: two MDS
        instances are namespace-equal iff their ``namespace_state`` dicts
        are equal. Pending (uncommitted) migrations do not appear — they
        have not mutated the namespace yet.
        """
        return {
            name: (self._generations.get(name, 0), canonical_spec(layout))
            for name, layout in self._files.items()
        }

    # -- journaled mutations (DESIGN.md §11) --------------------------------

    def enable_journal(self, journal: MetadataJournal | None = None) -> MetadataJournal:
        """Turn on write-ahead journaling of every namespace mutation.

        Idempotent. Enabling on a non-empty namespace first snapshots the
        existing files as ``register`` records so the journal alone always
        suffices to rebuild the namespace.
        """
        if self.journal is None:
            self.journal = journal if journal is not None else MetadataJournal()
            for name in sorted(self._files):
                self.journal.append(
                    "register",
                    name=name,
                    generation=self._generations.get(name, 0),
                    layout=layout_to_spec(self._files[name]),
                )
        return self.journal

    def record_relayout(self, name: str, layout: LayoutPolicy, generation: int) -> None:
        """Record a completed layout swap (one atomic journaled mutation).

        Called by :meth:`repro.pfs.filesystem.PFSFile.relayout`. While a
        two-phase migration is pending for ``name`` this is a no-op: the
        ``migration_begin`` record already carries the target layout, and
        only ``migration_commit`` makes the swap durable — a crash before
        commit must recover the *old* generation.
        """
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name!r}")
        if name in self._pending_migrations:
            return
        if self.journal is not None:
            self.journal.append(
                "relayout",
                name=name,
                generation=int(generation),
                layout=layout_to_spec(layout),
            )
        self._files[name] = layout
        self._generations[name] = int(generation)

    def begin_migration(self, name: str, layout: LayoutPolicy, generation: int) -> None:
        """Phase one of the migration generation-swap: journal the intent.

        Mutates nothing — the namespace keeps the old layout/generation
        until :meth:`commit_migration`, so recovery from a crash anywhere
        between begin and commit rolls the migration back.
        """
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name!r}")
        if name in self._pending_migrations:
            raise RuntimeError(f"migration already pending for {name!r}")
        if self.journal is not None:
            self.journal.append(
                "migration_begin",
                name=name,
                generation=int(generation),
                layout=layout_to_spec(layout),
            )
        self._pending_migrations[name] = (int(generation), layout)

    def commit_migration(self, name: str) -> None:
        """Phase two: the copy finished; swap the namespace durably."""
        try:
            generation, layout = self._pending_migrations.pop(name)
        except KeyError:
            raise RuntimeError(f"no migration pending for {name!r}") from None
        if self.journal is not None:
            self.journal.append("migration_commit", name=name, generation=generation)
        self._files[name] = layout
        self._generations[name] = generation

    def abort_migration(self, name: str) -> None:
        """The copy failed; discard the intent (namespace never changed)."""
        if self._pending_migrations.pop(name, None) is None:
            raise RuntimeError(f"no migration pending for {name!r}")
        if self.journal is not None:
            self.journal.append("migration_abort", name=name)

    # -- journaled rebuild records (DESIGN.md §16) --------------------------

    def record_rebuild_begin(
        self, name: str, generation: int, region: int, server: int, copy: int, target: int
    ) -> None:
        """Phase one of a replica move: journal the intent, mutate nothing.

        ``(region, server, copy)`` names the logical placement (the
        ``copy``-th replica of the stripe column that config-server
        ``server`` owns in ``region``); ``target`` is where the rebuild
        manager is about to re-create it. A crash between begin and commit
        recovers with the *old* replica sites — the half-copied extent is
        garbage the rebuild redoes, never a committed location.
        """
        if name not in self._files:
            raise FileNotFoundError(f"no such file: {name!r}")
        key = (name, int(generation), int(region), int(server), int(copy))
        if self.journal is not None:
            self.journal.append(
                "rebuild_begin",
                name=name,
                generation=int(generation),
                region=int(region),
                server=int(server),
                copy=int(copy),
                target=int(target),
            )
        self._pending_rebuilds[key] = int(target)

    def record_rebuild_commit(
        self,
        name: str,
        generation: int,
        region: int,
        server: int,
        copy: int,
        target: int,
        natural: bool,
    ) -> None:
        """Phase two: the copy landed; swap the replica site durably.

        ``natural=True`` means the placement moved back to its configured
        home (a backfill after a server rejoin) and the override entry is
        *removed*; otherwise the override is installed/replaced.
        """
        key = (name, int(generation), int(region), int(server), int(copy))
        self._pending_rebuilds.pop(key, None)
        if self.journal is not None:
            self.journal.append(
                "rebuild_commit",
                name=name,
                generation=int(generation),
                region=int(region),
                server=int(server),
                copy=int(copy),
                target=int(target),
                natural=bool(natural),
            )
        if natural:
            self._replica_sites.pop(key, None)
        else:
            self._replica_sites[key] = int(target)

    def record_rebuild_abort(
        self, name: str, generation: int, region: int, server: int, copy: int
    ) -> None:
        """The copy failed mid-flight; discard the intent (sites unchanged)."""
        key = (name, int(generation), int(region), int(server), int(copy))
        self._pending_rebuilds.pop(key, None)
        if self.journal is not None:
            self.journal.append(
                "rebuild_abort",
                name=name,
                generation=int(generation),
                region=int(region),
                server=int(server),
                copy=int(copy),
            )

    def replica_sites(self) -> dict[tuple[str, int, int, int, int], int]:
        """Committed replica-location overrides (copy; safe to mutate)."""
        return dict(self._replica_sites)

    @classmethod
    def recover(cls, journal_data: bytes | MetadataJournal, **mds_kwargs) -> "MetadataServer":
        """Rebuild an MDS namespace from journal bytes after a crash.

        Replays the clean record prefix (torn/corrupt tails are discarded by
        :meth:`MetadataJournal.decode`), then rolls back every migration
        whose ``migration_begin`` has no matching commit — the recovered
        namespace is always exactly the pre- or post-state of each journaled
        mutation. ``last_recovery`` on the returned instance reports what
        was replayed, discarded, and rolled back. The recovered MDS has no
        live journal; call :meth:`enable_journal` to resume journaling
        (which re-snapshots the recovered namespace).
        """
        data = (
            journal_data.data
            if isinstance(journal_data, MetadataJournal)
            else bytes(journal_data)
        )
        records, clean = MetadataJournal.decode(data)
        mds = cls(**mds_kwargs)
        pending: dict[str, tuple[int, dict]] = {}
        for record in records:
            op = record["op"]
            name = record["name"]
            if op == "register":
                mds._files[name] = layout_from_spec(record["layout"])
                mds._generations[name] = int(record.get("generation", 0))
            elif op == "unregister":
                mds._files.pop(name, None)
                mds._generations.pop(name, None)
                pending.pop(name, None)
            elif op == "relayout":
                if name in mds._files:
                    mds._files[name] = layout_from_spec(record["layout"])
                    mds._generations[name] = int(record["generation"])
            elif op == "migration_begin":
                pending[name] = (int(record["generation"]), record["layout"])
            elif op == "migration_commit":
                begun = pending.pop(name, None)
                if begun is not None and name in mds._files:
                    generation, layout_spec = begun
                    mds._files[name] = layout_from_spec(layout_spec)
                    mds._generations[name] = generation
            elif op == "migration_abort":
                pending.pop(name, None)
            elif op == "rebuild_begin":
                # Intent only: no mutation until the matching commit.
                pass
            elif op == "rebuild_commit":
                key = (
                    name,
                    int(record["generation"]),
                    int(record["region"]),
                    int(record["server"]),
                    int(record["copy"]),
                )
                if name in mds._files:
                    if record.get("natural"):
                        mds._replica_sites.pop(key, None)
                    else:
                        mds._replica_sites[key] = int(record["target"])
            elif op == "rebuild_abort":
                pass
        mds.last_recovery = RecoveryReport(
            bytes_total=len(data),
            bytes_replayed=clean,
            records_applied=len(records),
            rolled_back=sorted(pending),
        )
        return mds

    # -- runtime lookup cost ------------------------------------------------

    def lookup_time(self, n_regions: int, op: str = "open") -> float:
        """Service time of one request's RST consultation.

        Base latency plus a binary-search step per log2(region count) —
        1-region (conventional) files pay only the base. With a calibrated
        :class:`~repro.devices.profiles.MdsProfile` attached, ``op`` selects
        the op class (open/stat/relayout); without one, every op class
        charges the legacy constants (bit-identical to older builds).
        """
        if self.profile is not None:
            return self.profile.service_time(op, n_regions)
        if n_regions < 1:
            raise ValueError(f"n_regions must be >= 1, got {n_regions}")
        levels = math.ceil(math.log2(n_regions)) if n_regions > 1 else 0
        return self.lookup_latency + self.per_region_latency * levels
