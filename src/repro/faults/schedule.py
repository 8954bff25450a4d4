"""Declarative fault schedules: typed specs, a parser, stochastic generation.

A :class:`FaultSchedule` is an immutable, picklable list of fault events in
simulated time. Schedules come from three places:

- **scripted**: construct the spec dataclasses directly in code/tests;
- **CLI strings**: :func:`parse_faults` understands the compact grammar
  used by ``run-ior --faults`` and ``chaos`` (see the README table)::

      crash:<server>@<t>                 permanent server crash at t
      hang:<server>@<t>+<dur>            server unresponsive for dur seconds
      degrade:<server>@<t>x<factor>+<dur> device slowdown factor over window
      blip@<t>x<factor>+<dur>            network-wide slowdown over window
      corrupt:<server>@<t>[%<rate>]      silently corrupt written stripe units
      mds-crash:<shard>@<t>              crash a metadata shard at t
      restore:<server>@<t>               crashed server rejoins (empty) at t

  events separated by ``;``; ``<server>`` is a server name (``sserver0``)
  or integer index; malformed specs raise :class:`FaultSpecError`;
- **stochastic**: :meth:`FaultSchedule.random` draws event counts, times,
  targets, factors, and durations from :func:`repro.util.rng.derive_rng`
  streams — the same seed always yields the same schedule, so chaos sweeps
  replay bit-identically, serial or parallel.

Every schedule also round-trips: :meth:`FaultSchedule.to_spec` prints the
grammar string whose :func:`parse_faults` yields an equal schedule, so
schedules can live in reports and be replayed verbatim.

The schedule itself never touches the simulation; the
:class:`~repro.faults.injector.FaultInjector` turns it into DES events.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.util.rng import derive_rng


class FaultSpecError(ValueError):
    """A fault spec string (or schedule) is malformed.

    Subclasses ValueError so generic validation handling still catches it;
    the CLI maps it to exit code 2 with the message, never a traceback.
    """


@dataclass(frozen=True)
class ServerCrash:
    """Permanent server failure at ``time``."""

    time: float
    server: int | str

    kind = "crash"


@dataclass(frozen=True)
class ServerHang:
    """Server unresponsive during ``[time, time + duration)``.

    Queued and newly arriving sub-requests stall behind the hang; with a
    :class:`~repro.faults.retry.RetryPolicy` in place, clients time out and
    retry (the server is *not* marked dead — retries against it succeed
    once the hang clears).
    """

    time: float
    server: int | str
    duration: float

    kind = "hang"


@dataclass(frozen=True)
class ServerDegrade:
    """Device service times multiplied by ``factor`` during the window."""

    time: float
    server: int | str
    factor: float
    duration: float

    kind = "degrade"


@dataclass(frozen=True)
class NetworkBlip:
    """All network transfer times multiplied by ``factor`` during the window."""

    time: float
    factor: float
    duration: float

    kind = "blip"


@dataclass(frozen=True)
class DataCorruption:
    """Silent corruption of written stripe units on ``server`` at ``time``.

    ``rate`` in (0, 1] is the fraction of the server's written stripe units
    whose stored CRC tags flip to poisoned (at least one unit if any exist).
    The unit sample is seed-deterministic — drawn by the injector from
    :func:`repro.util.rng.derive_rng` — so chaos runs replay bit-identically
    under ``--jobs N``. Installing a schedule with corruption events turns
    end-to-end checksumming on (:mod:`repro.pfs.integrity`); the corrupted
    units are later *detected* on read, never silently returned.
    """

    time: float
    server: int | str
    rate: float = 1.0

    kind = "corrupt"


@dataclass(frozen=True)
class MdsCrash:
    """Permanent crash of metadata shard ``shard`` at ``time``.

    Targets a shard of the filesystem's
    :class:`repro.pfs.mds_cluster.MetadataCluster`. The shard's in-memory
    namespace is lost, its journal bytes survive; when the cluster has
    recovery enabled the injector replays the journal on the ring successor
    after ``recovery_delay``. A crash with no live successor (the last
    shard standing) leaves its arc down for the rest of the run.
    """

    time: float
    shard: int | str

    kind = "mds-crash"


@dataclass(frozen=True)
class ServerRestore:
    """A crashed data server rejoins the cluster *empty* at ``time``.

    The rejoin models a chassis swap: same identity and device class, no
    surviving data. :meth:`repro.pfs.filesystem.ParallelFileSystem.restore_server`
    drops the victim's extent table entries and checksum tags, revives it in
    :class:`~repro.pfs.health.ServerHealth`, and — when a
    :class:`~repro.online.rebuild.RebuildManager` is attached — triggers a
    backfill so placements whose natural home is the restored server migrate
    home. Restoring a server that never crashed (or was already restored) is
    a no-op; the injector still counts the event as injected.
    """

    time: float
    server: int | str

    kind = "restore"


FaultEvent = (
    ServerCrash
    | ServerHang
    | ServerDegrade
    | NetworkBlip
    | DataCorruption
    | MdsCrash
    | ServerRestore
)


@dataclass(frozen=True)
class FaultSchedule:
    """An immutable collection of fault events (any order; injector sorts)."""

    events: tuple[FaultEvent, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "events", tuple(self.events))

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    def validate(self, n_servers: int | None = None) -> "FaultSchedule":
        """Sanity-check every event; returns self for chaining.

        With ``n_servers`` given, integer server targets are range-checked
        (names resolve later, against the actual filesystem).
        """
        for event in self.events:
            if event.time < 0:
                raise FaultSpecError(f"fault time must be >= 0, got {event.time} in {event}")
            duration = getattr(event, "duration", None)
            if duration is not None and duration <= 0:
                raise FaultSpecError(f"fault duration must be > 0, got {duration} in {event}")
            factor = getattr(event, "factor", None)
            if factor is not None and factor < 1.0:
                raise FaultSpecError(
                    f"slowdown factor must be >= 1.0, got {factor} in {event}"
                )
            rate = getattr(event, "rate", None)
            if rate is not None and not (0.0 < rate <= 1.0):
                raise FaultSpecError(
                    f"corruption rate must be in (0, 1], got {rate} in {event}"
                )
            server = getattr(event, "server", None)
            if isinstance(server, int) and n_servers is not None:
                if not (0 <= server < n_servers):
                    raise FaultSpecError(
                        f"server index {server} out of range 0..{n_servers - 1} in {event}"
                    )
            shard = getattr(event, "shard", None)
            if isinstance(shard, int) and shard < 0:
                raise FaultSpecError(f"shard index must be >= 0, got {shard} in {event}")
        return self

    def sorted_events(self) -> tuple[FaultEvent, ...]:
        """Events by time (stable for ties), the injection order."""
        return tuple(sorted(self.events, key=lambda e: e.time))

    def crashes(self) -> tuple[ServerCrash, ...]:
        return tuple(e for e in self.events if isinstance(e, ServerCrash))

    def corruptions(self) -> tuple[DataCorruption, ...]:
        return tuple(e for e in self.events if isinstance(e, DataCorruption))

    def mds_crashes(self) -> tuple[MdsCrash, ...]:
        return tuple(e for e in self.events if isinstance(e, MdsCrash))

    def restores(self) -> tuple[ServerRestore, ...]:
        return tuple(e for e in self.events if isinstance(e, ServerRestore))

    def to_spec(self) -> str:
        """Print the schedule in the :func:`parse_faults` grammar.

        The inverse of parsing: ``parse_faults(s.to_spec()) == s`` for any
        valid schedule, including :meth:`random`-generated ones. Floats are
        printed with ``repr`` so the round trip is bit-exact; a corruption
        event with the default rate 1.0 omits the ``%<rate>`` suffix.
        """
        clauses: list[str] = []
        for event in self.events:
            if isinstance(event, ServerCrash):
                clauses.append(f"crash:{event.server}@{event.time!r}")
            elif isinstance(event, ServerHang):
                clauses.append(f"hang:{event.server}@{event.time!r}+{event.duration!r}")
            elif isinstance(event, ServerDegrade):
                clauses.append(
                    f"degrade:{event.server}@{event.time!r}x{event.factor!r}"
                    f"+{event.duration!r}"
                )
            elif isinstance(event, NetworkBlip):
                clauses.append(f"blip@{event.time!r}x{event.factor!r}+{event.duration!r}")
            elif isinstance(event, DataCorruption):
                if event.rate == 1.0:
                    clauses.append(f"corrupt:{event.server}@{event.time!r}")
                else:
                    clauses.append(f"corrupt:{event.server}@{event.time!r}%{event.rate!r}")
            elif isinstance(event, MdsCrash):
                clauses.append(f"mds-crash:{event.shard}@{event.time!r}")
            elif isinstance(event, ServerRestore):
                clauses.append(f"restore:{event.server}@{event.time!r}")
            else:
                raise FaultSpecError(f"cannot format unknown event type: {event!r}")
        return ";".join(clauses)

    @classmethod
    def random(
        cls,
        seed: int,
        horizon: float,
        n_servers: int,
        crash_rate: float = 0.0,
        hang_rate: float = 0.0,
        degrade_rate: float = 0.0,
        blip_rate: float = 0.0,
        corrupt_rate: float = 0.0,
        hang_duration: tuple[float, float] = (0.05, 0.5),
        degrade_factor: tuple[float, float] = (1.5, 4.0),
        degrade_duration: tuple[float, float] = (0.1, 1.0),
        blip_factor: tuple[float, float] = (1.5, 3.0),
        blip_duration: tuple[float, float] = (0.05, 0.3),
        corrupt_fraction: tuple[float, float] = (0.05, 0.5),
        max_crashes: int | None = None,
        mds_crash_rate: float = 0.0,
        n_mds_shards: int = 1,
        max_mds_crashes: int | None = None,
        class_counts: tuple[int, ...] | None = None,
        crash_restore_delay: float | None = None,
    ) -> "FaultSchedule":
        """Draw a stochastic schedule; same arguments ⇒ same schedule.

        Each ``*_rate`` is the *expected number of events* of that kind over
        ``horizon``; counts are Poisson draws, times uniform in
        ``[0, horizon)``, targets uniform over servers, factors/durations
        uniform over the given ranges. ``max_crashes`` caps permanent
        failures (defaults to ``n_servers - 1`` so at least one server
        survives). Corruption events poison a uniform draw from
        ``corrupt_fraction`` of the target's written stripe units.

        ``class_counts`` — server counts per performance class, in index
        order (servers ``0..c0-1`` are class 0, the next ``c1`` class 1, …;
        must sum to ``n_servers``) — enforces a per-class survivors floor:
        a crash is only ever aimed at a server whose class still has at
        least two standing, so no schedule can leave the route map with a
        dead class. The floor is conservative: paired restores (below) are
        *not* credited back, so the guarantee holds even if every restore
        were dropped. ``None`` preserves the legacy target stream
        bit-for-bit. ``crash_restore_delay`` pairs every drawn crash with a
        :class:`ServerRestore` of the same server ``delay`` seconds later.
        """
        if horizon <= 0:
            raise FaultSpecError(f"horizon must be > 0, got {horizon}")
        if n_servers < 1:
            raise FaultSpecError(f"n_servers must be >= 1, got {n_servers}")
        if max_crashes is None:
            max_crashes = max(0, n_servers - 1)
        if crash_restore_delay is not None and crash_restore_delay <= 0:
            raise FaultSpecError(
                f"crash_restore_delay must be > 0, got {crash_restore_delay}"
            )
        class_of: list[int] | None = None
        class_alive: list[int] | None = None
        if class_counts is not None:
            if any(c < 0 for c in class_counts) or sum(class_counts) != n_servers:
                raise FaultSpecError(
                    f"class_counts {class_counts!r} must be >= 0 and sum to {n_servers}"
                )
            class_of = []
            for class_index, count in enumerate(class_counts):
                class_of.extend([class_index] * count)
            class_alive = list(class_counts)
        if mds_crash_rate > 0 and n_mds_shards < 2:
            raise FaultSpecError(
                "mds_crash_rate > 0 needs n_mds_shards >= 2 "
                "(random mds crashes always leave one shard standing)"
            )
        if max_mds_crashes is None:
            # At least one shard survives, so every crash has a successor.
            max_mds_crashes = n_mds_shards - 1
        events: list[FaultEvent] = []
        for kind, rate in (
            ("crash", crash_rate),
            ("hang", hang_rate),
            ("degrade", degrade_rate),
            ("blip", blip_rate),
            ("corrupt", corrupt_rate),
            ("mds-crash", mds_crash_rate),
        ):
            if rate < 0:
                raise FaultSpecError(f"{kind}_rate must be >= 0, got {rate}")
            if rate == 0:
                continue
            rng = derive_rng(seed, "faults", kind)
            count = int(rng.poisson(rate))
            if kind == "crash":
                count = min(count, max_crashes)
            elif kind == "mds-crash":
                count = min(count, max_mds_crashes)
            for _ in range(count):
                time = float(rng.uniform(0.0, horizon))
                if kind == "crash":
                    if class_of is None:
                        target = int(rng.integers(0, n_servers))
                    else:
                        assert class_alive is not None
                        eligible = [
                            s for s in range(n_servers) if class_alive[class_of[s]] >= 2
                        ]
                        if not eligible:
                            break
                        target = eligible[int(rng.integers(0, len(eligible)))]
                        class_alive[class_of[target]] -= 1
                    events.append(ServerCrash(time, target))
                    if crash_restore_delay is not None:
                        events.append(ServerRestore(time + crash_restore_delay, target))
                elif kind == "mds-crash":
                    events.append(MdsCrash(time, int(rng.integers(0, n_mds_shards))))
                elif kind == "hang":
                    events.append(
                        ServerHang(
                            time,
                            int(rng.integers(0, n_servers)),
                            float(rng.uniform(*hang_duration)),
                        )
                    )
                elif kind == "degrade":
                    events.append(
                        ServerDegrade(
                            time,
                            int(rng.integers(0, n_servers)),
                            float(rng.uniform(*degrade_factor)),
                            float(rng.uniform(*degrade_duration)),
                        )
                    )
                elif kind == "blip":
                    events.append(
                        NetworkBlip(
                            time,
                            float(rng.uniform(*blip_factor)),
                            float(rng.uniform(*blip_duration)),
                        )
                    )
                else:
                    events.append(
                        DataCorruption(
                            time,
                            int(rng.integers(0, n_servers)),
                            float(rng.uniform(*corrupt_fraction)),
                        )
                    )
        return cls(tuple(events)).validate(n_servers=n_servers)


# -- spec-string parsing ----------------------------------------------------

_TIME = r"(?P<time>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"
_DUR = r"(?P<duration>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"
_FACTOR = r"(?P<factor>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"
_SERVER = r"(?P<server>[A-Za-z_][A-Za-z0-9_\-]*|[0-9]+)"

_RATE = r"(?P<rate>[0-9]*\.?[0-9]+(?:[eE][-+]?[0-9]+)?)"

_SHARD = r"(?P<shard>[A-Za-z_][A-Za-z0-9_\-]*|[0-9]+)"

_PATTERNS = {
    "crash": re.compile(rf"^crash:{_SERVER}@{_TIME}$"),
    "hang": re.compile(rf"^hang:{_SERVER}@{_TIME}\+{_DUR}$"),
    "degrade": re.compile(rf"^degrade:{_SERVER}@{_TIME}x{_FACTOR}\+{_DUR}$"),
    "blip": re.compile(rf"^blip@{_TIME}x{_FACTOR}\+{_DUR}$"),
    "corrupt": re.compile(rf"^corrupt:{_SERVER}@{_TIME}(?:%{_RATE})?$"),
    "mds-crash": re.compile(rf"^mds-crash:{_SHARD}@{_TIME}$"),
    "restore": re.compile(rf"^restore:{_SERVER}@{_TIME}$"),
}

_USAGE = (
    "expected one of: crash:<server>@<t>  hang:<server>@<t>+<dur>  "
    "degrade:<server>@<t>x<factor>+<dur>  blip@<t>x<factor>+<dur>  "
    "corrupt:<server>@<t>[%<rate>]  mds-crash:<shard>@<t>  "
    "restore:<server>@<t>  "
    "(';'-separated; <server> is a name like sserver0 or an index, "
    "<shard> a name like mds0 or an index)"
)


def _parse_server(token: str) -> int | str:
    return int(token) if token.isdigit() else token


def parse_faults(spec: str) -> FaultSchedule:
    """Parse a ``--faults`` spec string into a validated FaultSchedule.

    Raises :class:`FaultSpecError` naming the offending clause on any
    syntax or range problem.
    """
    events: list[FaultEvent] = []
    for raw in spec.split(";"):
        clause = raw.strip()
        if not clause:
            continue
        kind = clause.split(":", 1)[0].split("@", 1)[0].strip().lower()
        pattern = _PATTERNS.get(kind)
        match = pattern.match(clause) if pattern is not None else None
        if match is None:
            raise FaultSpecError(f"malformed fault clause {clause!r}: {_USAGE}")
        groups = match.groupdict()
        time = float(groups["time"])
        if kind == "crash":
            events.append(ServerCrash(time, _parse_server(groups["server"])))
        elif kind == "hang":
            events.append(
                ServerHang(time, _parse_server(groups["server"]), float(groups["duration"]))
            )
        elif kind == "degrade":
            events.append(
                ServerDegrade(
                    time,
                    _parse_server(groups["server"]),
                    float(groups["factor"]),
                    float(groups["duration"]),
                )
            )
        elif kind == "blip":
            events.append(NetworkBlip(time, float(groups["factor"]), float(groups["duration"])))
        elif kind == "mds-crash":
            events.append(MdsCrash(time, _parse_server(groups["shard"])))
        elif kind == "restore":
            events.append(ServerRestore(time, _parse_server(groups["server"])))
        else:
            rate = 1.0 if groups.get("rate") is None else float(groups["rate"])
            events.append(DataCorruption(time, _parse_server(groups["server"]), rate))
    if not events:
        raise FaultSpecError(f"fault spec {spec!r} contains no events: {_USAGE}")
    return FaultSchedule(tuple(events)).validate()
