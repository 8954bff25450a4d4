"""Sharded, fault-tolerant metadata service with journal-replayed failover.

One metadata server is a scalability wall and a single point of failure:
every RST consult of every client funnels through one service queue, and a
crash loses the namespace. This module shards the namespace — file →
layout, layout generations, pending two-phase migrations — across N
metadata servers on a Chord-style consistent-hash ring keyed by file name,
and makes the metadata path as resilient as the data path (DESIGN.md §14):

- **Ring layout** (:class:`HashRing`): every shard owns the arc of the
  2^32 hash space ending at its token; a file lives on the first shard at
  or clockwise-after ``sha1(name)``. Routing from a deterministic entry
  shard to the owner is either a **linear** successor walk (O(N) hops) or
  a **finger-table** jump (O(log N) hops) — both return the same owner,
  only the hop count differs, and each hop costs ``hop_latency`` of
  simulated time, so the routing choice is measurable in makespans and in
  ``repro mds-bench``.
- **Per-shard WAL**: each :class:`MetadataShard` journals every namespace
  mutation into its own :class:`~repro.pfs.journal.MetadataJournal` before
  applying it. The journal bytes are the shard's "disk" — they survive the
  crash of the shard's in-memory state.
- **Crash + failover**: :meth:`MetadataCluster.crash_shard` kills a shard
  (fault kind ``mds-crash:<shard>@<t>``), interrupting in-flight lookups;
  clients retry with seed-deterministic capped exponential backoff.
  :meth:`MetadataCluster.recover_shard` replays the victim's journal on
  its ring successor — longest-clean-prefix semantics inherited from
  :meth:`MetadataServer.recover`, uncommitted migrations rolled back —
  then removes the victim's token so the successor owns its arc.
- **Join/leave** (:meth:`add_shard` / :meth:`remove_shard`): key handoff
  moves exactly the entries whose arc changed hands, journaled on both
  sides so recovery stays correct across membership changes.
- **Degraded operation**: while a shard is down and unrecovered, lookups
  against its arc retry and then raise the typed :class:`MetadataUnavailable`
  instead of wedging the simulation; control-plane operations raise it
  immediately. :class:`ShardHealth` (mirroring
  :class:`~repro.pfs.health.ServerHealth`) keeps the counters.

Everything is seed-deterministic: positions come from sha1, entry shards
from a consult sequence number, backoff jitter from
:func:`repro.util.rng.derive_rng` — never from wall clock or salted
``hash()`` — so the same (seed, schedule) replays bit-identically, serial
or under ``--jobs N``.

The cluster is the filesystem's only metadata service; the default is one
shard. With ``n_shards=1`` and no armed mds faults,
:meth:`MetadataCluster.consult` is one queued service slot per lookup
(request → service timeout → release, zero hops); the golden results in
``tests/test_mds_golden.py`` pin that event sequence.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_left
from collections.abc import Generator
from dataclasses import dataclass

from repro.pfs.journal import layout_to_spec
from repro.pfs.layout import LayoutPolicy
from repro.pfs.metadata import MetadataServer
from repro.simulate.engine import Interrupt, Process, Simulator
from repro.simulate.resources import Resource
from repro.util.rng import derive_rng

#: Hash-space size of the ring (Chord with 32-bit identifiers).
RING_BITS = 32
RING_SPACE = 1 << RING_BITS

ROUTING_MODES = ("finger", "linear")


class MetadataUnavailable(RuntimeError):
    """A metadata operation could not be served by any shard.

    Raised when a lookup's retry budget is exhausted against a crashed,
    unrecovered shard, and immediately by control-plane operations
    (register/relayout/migration) that target an unreachable arc.
    ``shard`` is the shard id last involved, when known.
    """

    def __init__(self, message: str, shard: int | None = None):
        super().__init__(message)
        self.shard = shard


def ring_position(label: str) -> int:
    """Stable position of ``label`` on the ring (first 4 sha1 bytes).

    Python's builtin ``hash()`` is salted per process; sha1 keeps shard
    placement identical across forked pool workers and sessions.
    """
    return int.from_bytes(hashlib.sha1(label.encode()).digest()[:4], "big")


def _in_arc(start: int, end: int, x: int) -> bool:
    """True iff ``x`` lies in the clockwise arc ``(start, end]`` (mod 2^32)."""
    if start == end:
        return True  # single-node ring: the node owns everything
    if start < end:
        return start < x <= end
    return x > start or x <= end


def _in_open_arc(start: int, end: int, x: int) -> bool:
    """True iff ``x`` lies in the clockwise arc ``(start, end)`` (mod 2^32)."""
    if start == end:
        return x != start
    if start < end:
        return start < x < end
    return x > start or x < end


class HashRing:
    """Consistent-hash ring with linear and finger-table routing.

    Members are integer shard ids; each gets one token at
    ``ring_position("mds<id>")`` (colliding tokens are linearly probed to
    the next free position, deterministically). The ring answers two
    questions: who owns a key, and how many hops a request starting at an
    entry member takes to reach the owner under each routing mode.
    """

    def __init__(self, members: list[int] | tuple[int, ...] = ()):
        self._position: dict[int, int] = {}
        self._sorted: list[tuple[int, int]] = []  # (position, member)
        self._members: tuple[int, ...] = ()
        self._fingers: dict[int, list[int]] = {}
        #: ``route`` answers for the current membership, keyed by
        #: (entry, name, mode); cleared whenever the ring changes.
        self._routes: dict[tuple[int, str, str], tuple[int, int]] = {}
        for member in members:
            self.join(member)

    # -- membership --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._position)

    def __contains__(self, member: int) -> bool:
        return member in self._position

    def members(self) -> tuple[int, ...]:
        """Members in ring (position) order — the entry-point rotation."""
        return self._members

    def position_of(self, member: int) -> int:
        return self._position[member]

    def join(self, member: int) -> None:
        """Add ``member``'s token to the ring."""
        if member in self._position:
            raise ValueError(f"shard {member} already on the ring")
        position = ring_position(f"mds{member}")
        taken = {p for p in self._position.values()}
        while position in taken:
            position = (position + 1) % RING_SPACE
        self._position[member] = position
        self._rebuild()

    def leave(self, member: int) -> None:
        """Remove ``member``'s token; its arc falls to the successor."""
        if member not in self._position:
            raise ValueError(f"shard {member} not on the ring")
        del self._position[member]
        self._rebuild()

    def _rebuild(self) -> None:
        self._sorted = sorted((p, m) for m, p in self._position.items())
        self._members = tuple(member for _, member in self._sorted)
        self._routes = {}
        # finger[k] of a member = owner of (position + 2^k): the classic
        # Chord table, rebuilt eagerly (membership changes are rare and the
        # ring is small).
        self._fingers = {}
        if not self._sorted:
            return
        for position, member in self._sorted:
            table = []
            for k in range(RING_BITS):
                target = (position + (1 << k)) % RING_SPACE
                table.append(self._owner_of_position(target))
            self._fingers[member] = table

    # -- ownership ---------------------------------------------------------

    def key_position(self, name: str) -> int:
        return ring_position(name)

    def _owner_of_position(self, position: int) -> int:
        positions = self._sorted
        index = bisect_left(positions, (position, -1))
        if index == len(positions):
            index = 0  # wrap: first token clockwise from the top of the space
        return positions[index][1]

    def owner_of(self, name: str) -> int:
        """Member owning ``name`` (successor of the key's position)."""
        if not self._sorted:
            raise ValueError("ring has no members")
        return self._owner_of_position(self.key_position(name))

    def successor(self, member: int) -> int | None:
        """Next member clockwise after ``member``; None if it is alone."""
        if len(self._sorted) < 2:
            return None
        positions = [p for p, _ in self._sorted]
        index = bisect_left(positions, self._position[member])
        return self._sorted[(index + 1) % len(self._sorted)][1]

    # -- routing -----------------------------------------------------------

    def route(self, entry: int, name: str, mode: str = "finger") -> tuple[int, int]:
        """Hop count and owner for a lookup of ``name`` entering at ``entry``.

        ``linear`` walks successors one arc at a time; ``finger`` jumps via
        the closest preceding finger (Chord's O(log N) search). Both reach
        the same owner; only the hop count differs. Zero hops when the
        entry already owns the key. Answers are memoized until the
        membership next changes.
        """
        try:
            return self._routes[entry, name, mode]
        except KeyError:
            pass
        if mode not in ROUTING_MODES:
            raise ValueError(f"unknown routing mode {mode!r}; expected one of {ROUTING_MODES}")
        owner = self.owner_of(name)
        key = self.key_position(name)
        hops = 0
        current = entry
        while current != owner:
            successor = self.successor(current)
            if mode == "linear" or _in_arc(
                self._position[current], self._position[successor], key
            ):
                current = successor
            else:
                current = self._closest_preceding(current, key)
                if current is None:
                    current = successor
            hops += 1
        self._routes[entry, name, mode] = (hops, owner)
        return hops, owner

    def _closest_preceding(self, member: int, key: int) -> int | None:
        position = self._position[member]
        for finger in reversed(self._fingers[member]):
            if finger != member and _in_open_arc(position, key, self._position[finger]):
                return finger
        return None


class ShardHealth:
    """Alive/dead state and resilience counters for a metadata cluster.

    The metadata-plane sibling of :class:`~repro.pfs.health.ServerHealth`:
    ``alive`` flags flipped by :meth:`MetadataCluster.crash_shard`,
    ``recovered_to`` recording which successor absorbed a victim's arc, and
    counters feeding ``mds.*`` metrics and
    :class:`repro.faults.injector.FaultStats`.
    """

    def __init__(self, n_shards: int):
        if n_shards < 1:
            raise ValueError("ShardHealth needs at least one shard")
        self.alive: list[bool] = [True] * n_shards
        self.failed_at: dict[int, float] = {}
        #: victim shard id -> successor that replayed its journal.
        self.recovered_to: dict[int, int] = {}
        self.crashes = 0
        self.recoveries = 0
        self.retries = 0
        self.unavailable = 0
        self.records_replayed = 0
        self.entries_handed_off = 0
        self.rolled_back = 0

    @property
    def n_shards(self) -> int:
        return len(self.alive)

    @property
    def touched(self) -> bool:
        """True once any crash or resilience event happened (obs gating)."""
        return bool(self.failed_at or self.retries or self.unavailable)

    def is_alive(self, shard_id: int) -> bool:
        return self.alive[shard_id]

    def mark_failed(self, shard_id: int, now: float) -> bool:
        if not (0 <= shard_id < self.n_shards):
            raise IndexError(f"shard {shard_id} out of range 0..{self.n_shards - 1}")
        if not self.alive[shard_id]:
            return False
        self.alive[shard_id] = False
        self.failed_at[shard_id] = now
        self.crashes += 1
        return True

    def mark_recovered(self, shard_id: int, successor: int) -> None:
        self.recovered_to[shard_id] = successor
        self.recoveries += 1

    def grow(self) -> int:
        """Track one more shard (node join); returns its id."""
        self.alive.append(True)
        return len(self.alive) - 1

    def counters(self) -> dict[str, int]:
        """Picklable counter snapshot (feeds FaultStats and obs metrics)."""
        return {
            "shards_failed": len(self.failed_at),
            "crashes": self.crashes,
            "recoveries": self.recoveries,
            "retries": self.retries,
            "unavailable": self.unavailable,
            "records_replayed": self.records_replayed,
            "entries_handed_off": self.entries_handed_off,
            "rolled_back": self.rolled_back,
        }


class MetadataShard(MetadataServer):
    """One ring member: a journaled MetadataServer with a lookup queue.

    Always journals — the WAL is what makes the shard's namespace survive
    its crash — and, once attached to a simulator, owns the DES service
    resource lookups queue at, named after the shard so traced runs show
    per-shard queueing.
    """

    def __init__(self, shard_id: int, **mds_kwargs):
        super().__init__(**mds_kwargs)
        self.shard_id = int(shard_id)
        self.name = f"mds{shard_id}"
        self._service: Resource | None = None
        self.enable_journal()

    def attach(self, sim: Simulator) -> None:
        """Create the shard's DES lookup queue (``parallelism`` slots)."""
        self._service = Resource(sim, capacity=self.parallelism, name=self.name)

    @property
    def utilization_seconds(self) -> float:
        """Total busy time of the shard's service (attached mode only)."""
        return self._service.monitor.snapshot() if self._service else 0.0

    def adopt(self, name: str, layout: LayoutPolicy, generation: int) -> None:
        """Take ownership of an entry at its current generation (journaled).

        Used by key handoff and crash recovery; unlike :meth:`register`
        the journal record carries the entry's real generation, so a later
        replay of *this* shard's journal reproduces the adopted state.
        """
        assert self.journal is not None
        self.journal.append(
            "register",
            name=name,
            generation=int(generation),
            layout=layout_to_spec(layout),
        )
        self._files[name] = layout
        self._generations[name] = int(generation)

    def adopt_pending(self, name: str, generation: int, layout: LayoutPolicy) -> None:
        """Take over an in-flight two-phase migration intent (journaled)."""
        assert self.journal is not None
        self.journal.append(
            "migration_begin",
            name=name,
            generation=int(generation),
            layout=layout_to_spec(layout),
        )
        self._pending_migrations[name] = (int(generation), layout)


@dataclass(frozen=True)
class MdsStats:
    """Picklable metadata-cluster summary of one run (``RunResult.mds``)."""

    n_shards: int
    routing: str
    lookups: int
    hops_total: int
    hops_max: int
    crashes: int
    recoveries: int
    records_replayed: int
    entries_handed_off: int
    retries: int
    unavailable: int
    #: Entries of the expected end-of-run namespace that no reachable shard
    #: could serve (or served at a stale generation). The chaos gate: zero
    #: whenever every crashed shard was recovered.
    lost_entries: int = 0
    #: True when the run was aborted by an unrecoverable MetadataUnavailable.
    failed: bool = False
    shard_lookups: tuple[int, ...] = ()

    @property
    def mean_hops(self) -> float:
        return self.hops_total / self.lookups if self.lookups else 0.0


class MetadataCluster:
    """The metadata service: N journaled shards behind one namespace API.

    Every filesystem owns exactly one (one shard unless configured
    otherwise). The namespace API routes each operation to the shard owning
    the file's arc, and :meth:`consult` is the DES lookup path with hop
    costs, per-shard service queues, and the retry/backoff/failover loop
    described in the module docstring.
    """

    def __init__(
        self,
        n_shards: int,
        lookup_latency: float = 3.0e-5,
        per_region_latency: float = 2.0e-6,
        parallelism: int = 8,
        routing: str = "finger",
        hop_latency: float = 5.0e-6,
        recovery_delay: float | None = 2.0e-3,
        max_attempts: int = 12,
        backoff_base: float = 5.0e-4,
        backoff_cap: float = 5.0e-3,
        seed: int = 0,
        profile=None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        if routing not in ROUTING_MODES:
            raise ValueError(f"unknown routing mode {routing!r}; expected one of {ROUTING_MODES}")
        if hop_latency < 0:
            raise ValueError(f"hop_latency must be >= 0, got {hop_latency}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.routing = routing
        self.hop_latency = float(hop_latency)
        #: Seconds between a crash and its journal replay on the successor
        #: (driven by the fault injector); None disables automatic recovery
        #: — the shard's arc stays degraded for the rest of the run.
        self.recovery_delay = recovery_delay if recovery_delay is None else float(recovery_delay)
        self.max_attempts = int(max_attempts)
        self.backoff_base = float(backoff_base)
        self.backoff_cap = float(backoff_cap)
        self.seed = int(seed)
        self._mds_kwargs = {
            "lookup_latency": lookup_latency,
            "per_region_latency": per_region_latency,
            "parallelism": parallelism,
            "profile": profile,
        }
        self.shards: list[MetadataShard] = [
            MetadataShard(i, **self._mds_kwargs) for i in range(n_shards)
        ]
        self.ring = HashRing(range(n_shards))
        self.health = ShardHealth(n_shards)
        self._sim: Simulator | None = None
        self.lookup_count = 0
        self.hops_total = 0
        self.hops_max = 0
        self._consult_seq = 0
        #: In-flight lookup serve processes per shard, interrupted on crash
        #: in the order they started (a dict, not a set: never by address).
        self._inflight: dict[int, dict[Process, None]] = {i: {} for i in range(n_shards)}
        #: True once an mds-crash fault is armed: lookups run in child
        #: processes so a crash can interrupt them. Off by default — the
        #: inline path keeps the one-shard event sequence of the golden
        #: parity contract.
        self._interruptible = False
        self.last_recovery = None
        #: Callbacks fired whenever cached layout entries may have gone
        #: stale cluster-wide (crash and journal-replayed failover); the
        #: client-side :class:`~repro.pfs.filesystem.MetadataCache`
        #: subscribes its epoch bump here.
        self._invalidation_listeners: list = []

    def subscribe_invalidation(self, callback) -> None:
        """Register a zero-argument callback fired on crash/failover."""
        self._invalidation_listeners.append(callback)

    def _notify_invalidation(self) -> None:
        for callback in self._invalidation_listeners:
            callback()

    # -- plumbing ----------------------------------------------------------

    @property
    def n_shards(self) -> int:
        return len(self.shards)

    def attach(self, sim: Simulator) -> None:
        """Enable the queued lookup path (called by the owning filesystem)."""
        self._sim = sim
        for shard in self.shards:
            shard.attach(sim)

    def arm_interrupts(self) -> None:
        """Run lookups interruptibly (installed mds-crash faults only)."""
        self._interruptible = True

    def lookup_time(self, n_regions: int, op: str = "open") -> float:
        """Service time of one RST consultation (same model as one MDS)."""
        return self.shards[0].lookup_time(n_regions, op=op)

    @property
    def utilization_seconds(self) -> float:
        """Total busy time across all shard services (attached mode only)."""
        return sum(shard.utilization_seconds for shard in self.shards)

    # -- ownership ---------------------------------------------------------

    def shard_of(self, name: str) -> int:
        """Shard id currently owning ``name``'s arc (alive or not)."""
        return self.ring.owner_of(name)

    def _owner_or_raise(self, name: str) -> MetadataShard:
        owner = self.ring.owner_of(name)
        if not self.health.is_alive(owner):
            self.health.unavailable += 1
            raise MetadataUnavailable(
                f"metadata shard mds{owner} is down and unrecovered (key {name!r})",
                shard=owner,
            )
        return self.shards[owner]

    def _reachable_shards(self) -> list[MetadataShard]:
        return [
            self.shards[member]
            for member in self.ring.members()
            if self.health.is_alive(member)
        ]

    # -- namespace API (routed to the owner shard) --------------------------

    def register(self, name: str, layout: LayoutPolicy) -> None:
        self._owner_or_raise(name).register(name, layout)

    def unregister(self, name: str) -> None:
        self._owner_or_raise(name).unregister(name)

    def lookup(self, name: str) -> LayoutPolicy:
        self.lookup_count += 1
        shard = self._owner_or_raise(name)
        try:
            return shard._files[name]
        except KeyError:
            raise FileNotFoundError(f"no such file: {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._owner_or_raise(name)

    def files(self) -> list[str]:
        """Registered names across every reachable shard, sorted."""
        names: list[str] = []
        for shard in self._reachable_shards():
            names.extend(shard._files)
        return sorted(names)

    def generation_of(self, name: str) -> int:
        return self._owner_or_raise(name).generation_of(name)

    def namespace_state(self) -> dict[str, tuple[int, str]]:
        """Merged canonical snapshot of every reachable shard's namespace."""
        state: dict[str, tuple[int, str]] = {}
        for shard in self._reachable_shards():
            state.update(shard.namespace_state())
        return state

    def has_pending_migration(self, name: str) -> bool:
        owner = self.ring.owner_of(name)
        return (
            self.health.is_alive(owner)
            and name in self.shards[owner]._pending_migrations
        )

    def record_relayout(self, name: str, layout: LayoutPolicy, generation: int) -> None:
        self._owner_or_raise(name).record_relayout(name, layout, generation)

    def begin_migration(self, name: str, layout: LayoutPolicy, generation: int) -> None:
        self._owner_or_raise(name).begin_migration(name, layout, generation)

    def commit_migration(self, name: str) -> None:
        self._owner_or_raise(name).commit_migration(name)

    def abort_migration(self, name: str) -> None:
        self._owner_or_raise(name).abort_migration(name)

    def record_rebuild_begin(
        self, name: str, generation: int, region: int, server: int, copy: int, target: int
    ) -> None:
        self._owner_or_raise(name).record_rebuild_begin(
            name, generation, region, server, copy, target
        )

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
        self._owner_or_raise(name).record_rebuild_commit(
            name, generation, region, server, copy, target, natural
        )

    def record_rebuild_abort(
        self, name: str, generation: int, region: int, server: int, copy: int
    ) -> None:
        self._owner_or_raise(name).record_rebuild_abort(name, generation, region, server, copy)

    def replica_sites(self) -> dict[tuple[str, int, int, int, int], int]:
        """Merged committed replica-site overrides across reachable shards."""
        sites: dict[tuple[str, int, int, int, int], int] = {}
        for shard in self._reachable_shards():
            sites.update(shard._replica_sites)
        return sites

    # -- DES lookup path ----------------------------------------------------

    def _backoff_delay(self, key: str, seq: int, attempt: int) -> float:
        base = min(self.backoff_cap, self.backoff_base * (2 ** (attempt - 1)))
        rng = derive_rng(self.seed, "mds-retry", key, seq, attempt)
        return base * (1.0 + 0.25 * float(rng.random()))

    def consult(self, layout: LayoutPolicy, name: str | None = None, op: str = "open") -> Generator:
        """DES generator: one routed, queued, crash-survivable RST lookup.

        Pays ``hops * hop_latency`` for the ring walk from a rotating entry
        shard to the owner, then queues at the owner's service for the
        usual ``lookup_time`` of the ``op`` class. If the owner is down (or
        dies mid-service, when interrupts are armed) the client backs off
        deterministically and re-routes — after recovery the successor owns
        the arc — until the attempt budget is spent, then raises
        :class:`MetadataUnavailable`.
        """
        self.lookup_count += 1
        sim = self._sim
        if sim is None:
            raise RuntimeError("MetadataCluster not attached to a simulator")
        service_time = self.shards[0].lookup_time(layout.region_count(), op=op)
        key = name if name is not None else ""
        seq = self._consult_seq
        self._consult_seq += 1
        attempt = 0
        ring = self.ring
        alive = self.health.alive
        while True:
            members = ring._members
            hops, home = ring.route(members[seq % len(members)], key, self.routing)
            self.hops_total += hops
            if hops > self.hops_max:
                self.hops_max = hops
            if hops and self.hop_latency > 0:
                yield sim.timeout(hops * self.hop_latency)
            if alive[home]:
                shard = self.shards[home]
                if not self._interruptible:
                    # Inline path: one queued service slot, no child
                    # process (the golden parity contract).
                    if service_time <= 0:
                        shard.lookup_count += 1
                        return
                    service = shard._service
                    grant = yield service.request()
                    try:
                        yield sim.timeout(service_time)
                    finally:
                        service.release(grant)
                    shard.lookup_count += 1
                    return
                serve = sim.process(
                    self._shard_serve(home, service_time), name=f"{shard.name}-lookup"
                )
                self._inflight[home][serve] = None
                try:
                    yield serve
                except MetadataUnavailable:
                    pass  # shard died mid-lookup: back off and re-route
                else:
                    return
                finally:
                    self._inflight[home].pop(serve, None)
            attempt += 1
            if attempt >= self.max_attempts:
                self.health.unavailable += 1
                raise MetadataUnavailable(
                    f"metadata lookup for {key!r} failed after {attempt} attempt(s): "
                    f"shard mds{home} unavailable",
                    shard=home,
                )
            self.health.retries += 1
            delay = self._backoff_delay(key, seq, attempt)
            if delay > 0:
                yield sim.timeout(delay)

    def _shard_serve(self, shard_id: int, service_time: float) -> Generator:
        """One attempt at the owner's service queue, as a child process.

        Runs as its own Process so a crash can interrupt it without racing
        the client's other events; after an Interrupt it raises without
        yielding again, so any stale grant/timeout callback finds the
        process already finished.
        """
        shard = self.shards[shard_id]
        sim = self._sim
        service = shard._service
        request = service.request()
        granted = False
        try:
            yield request
            granted = True
            if service_time > 0:
                yield sim.timeout(service_time)
        except Interrupt as interrupt:
            if not granted and not service.cancel(request):
                granted = True  # granted between the crash and our wakeup
            if granted:
                service.release(request)
            raise MetadataUnavailable(
                f"shard mds{shard_id} crashed mid-lookup", shard=shard_id
            ) from interrupt
        service.release(request)
        shard.lookup_count += 1

    # -- crash, recovery, membership ----------------------------------------

    def crash_shard(self, shard_id: int) -> bool:
        """Kill a shard: in-memory namespace lost, journal bytes survive.

        In-flight lookups at the shard are interrupted (clients re-route
        and retry). Returns False if the shard was already dead.
        """
        if not (0 <= shard_id < self.n_shards):
            raise IndexError(f"shard {shard_id} out of range 0..{self.n_shards - 1}")
        now = self._sim.now if self._sim is not None else 0.0
        if not self.health.mark_failed(shard_id, now):
            return False
        cause = MetadataUnavailable(f"shard mds{shard_id} crashed", shard=shard_id)
        for process in list(self._inflight[shard_id]):
            process.interrupt(cause)
        self._inflight[shard_id].clear()
        self._notify_invalidation()
        return True

    def recover_shard(self, shard_id: int) -> int | None:
        """Replay a crashed shard's journal on its ring successor.

        The successor adopts every entry of the victim's longest clean
        journal prefix at its recorded generation (uncommitted migrations
        roll back, exactly as :meth:`MetadataServer.recover`), then the
        victim's token leaves the ring so the successor owns its arc from
        here on. Returns the successor id, or None when no live successor
        exists — the arc stays degraded.
        """
        if self.health.is_alive(shard_id):
            raise RuntimeError(f"shard mds{shard_id} is alive; nothing to recover")
        if shard_id in self.health.recovered_to:
            return self.health.recovered_to[shard_id]
        successor_id = self._alive_successor(shard_id)
        if successor_id is None:
            return None
        victim = self.shards[shard_id]
        replayed = MetadataServer.recover(victim.journal.data)
        successor = self.shards[successor_id]
        absorbed = 0
        for name in sorted(replayed._files):
            successor.adopt(
                name, replayed._files[name], replayed._generations.get(name, 0)
            )
            absorbed += 1
        report = replayed.last_recovery
        self.ring.leave(shard_id)
        self.health.mark_recovered(shard_id, successor_id)
        self.health.records_replayed += report.records_applied
        self.health.entries_handed_off += absorbed
        self.health.rolled_back += len(report.rolled_back)
        self.last_recovery = report
        self._notify_invalidation()
        return successor_id

    def _alive_successor(self, shard_id: int) -> int | None:
        """First live member clockwise after ``shard_id`` on the ring."""
        current = shard_id
        for _ in range(len(self.ring)):
            current = self.ring.successor(current)
            if current is None:
                return None
            if self.health.is_alive(current):
                return current
        return None

    def add_shard(self) -> int:
        """Node join: a new shard takes over its arc from its successor.

        Entries (and pending migration intents) whose keys now hash into
        the new shard's arc move over, journaled on both sides, so either
        side's journal still replays to its true namespace.
        """
        new_id = self.health.grow()
        shard = MetadataShard(new_id, **self._mds_kwargs)
        self.shards.append(shard)
        self._inflight[new_id] = {}
        if self._sim is not None:
            shard.attach(self._sim)
        self.ring.join(new_id)
        donor_id = self.ring.successor(new_id)
        if donor_id is not None:
            self._handoff(self.shards[donor_id], shard)
        return new_id

    def remove_shard(self, shard_id: int) -> int | None:
        """Graceful leave: hand every entry to the live successor, then go.

        Unlike :meth:`crash_shard` nothing is lost and no journal replay is
        needed. Returns the successor id (None if the shard was alone, in
        which case it must stay).
        """
        if not self.health.is_alive(shard_id):
            raise RuntimeError(f"shard mds{shard_id} is not alive")
        successor_id = self._alive_successor(shard_id)
        if successor_id is None:
            raise RuntimeError("cannot remove the last live shard")
        leaver = self.shards[shard_id]
        successor = self.shards[successor_id]
        for name in sorted(leaver._files):
            successor.adopt(name, leaver._files[name], leaver._generations.get(name, 0))
            pending = leaver._pending_migrations.get(name)
            if pending is not None:
                generation, layout = pending
                successor.adopt_pending(name, generation, layout)
            self.health.entries_handed_off += 1
        for name in list(leaver._files):
            leaver.unregister(name)
        self.ring.leave(shard_id)
        self.health.alive[shard_id] = False
        self.health.recovered_to[shard_id] = successor_id
        return successor_id

    def _handoff(self, donor: MetadataShard, receiver: MetadataShard) -> int:
        """Move donor entries whose arc now belongs to ``receiver``."""
        moved = 0
        for name in sorted(donor._files):
            if self.ring.owner_of(name) != receiver.shard_id:
                continue
            receiver.adopt(name, donor._files[name], donor._generations.get(name, 0))
            pending = donor._pending_migrations.get(name)
            if pending is not None:
                generation, layout = pending
                receiver.adopt_pending(name, generation, layout)
            donor.unregister(name)
            moved += 1
        self.health.entries_handed_off += moved
        return moved

    # -- accounting ---------------------------------------------------------

    def verify_namespace(self, expected: dict[str, int]) -> int:
        """Count expected entries no reachable shard can serve correctly.

        ``expected`` maps file name → committed layout generation (the
        harness builds it from the filesystem's live handles at the end of
        a run). An entry is *lost* when its arc's owner is down and
        unrecovered, when the owner does not hold the name, or when it
        holds a stale generation. The chaos acceptance gate: this is zero
        whenever every crashed shard was recovered.
        """
        lost = 0
        for name, generation in expected.items():
            owner = self.ring.owner_of(name)
            if not self.health.is_alive(owner):
                lost += 1
                continue
            shard = self.shards[owner]
            if name not in shard._files or shard._generations.get(name, 0) != int(generation):
                lost += 1
        return lost

    def fault_counters(self) -> dict[str, int]:
        """The FaultStats slice: what broke and how clients survived it."""
        return {
            "mds_crashes": self.health.crashes,
            "mds_recoveries": self.health.recoveries,
            "mds_retries": self.health.retries,
            "mds_unavailable": self.health.unavailable,
        }

    def cluster_counters(self) -> dict[str, int]:
        """Flat counter snapshot exported as ``mds.*`` metrics."""
        counters: dict[str, int] = {
            "shards": self.n_shards,
            "lookups": self.lookup_count,
            "hops": self.hops_total,
            "hops_max": self.hops_max,
            "journal_appends": sum(s.journal.appends for s in self.shards),
            "journal_bytes": sum(len(s.journal) for s in self.shards),
        }
        counters.update(self.health.counters())
        for shard in self.shards:
            counters[f"{shard.name}.lookups"] = shard.lookup_count
        return counters

    def stats(self, expected: dict[str, int] | None = None, failed: bool = False) -> MdsStats:
        """Picklable end-of-run summary (``RunResult.mds``)."""
        return MdsStats(
            n_shards=self.n_shards,
            routing=self.routing,
            lookups=self.lookup_count,
            hops_total=self.hops_total,
            hops_max=self.hops_max,
            crashes=self.health.crashes,
            recoveries=self.health.recoveries,
            records_replayed=self.health.records_replayed,
            entries_handed_off=self.health.entries_handed_off,
            retries=self.health.retries,
            unavailable=self.health.unavailable,
            lost_entries=self.verify_namespace(expected) if expected is not None else 0,
            failed=failed,
            shard_lookups=tuple(shard.lookup_count for shard in self.shards),
        )
