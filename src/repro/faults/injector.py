"""The fault injector: turns a FaultSchedule into DES events.

One :class:`FaultInjector` binds a schedule to a concrete simulator +
filesystem. :meth:`FaultInjector.install` resolves server names, enables
in-flight tracking on every server, and spawns one driver process per
fault event — all driven by the DES clock, so a given (seed, schedule)
replays bit-identically, serial or under ``--jobs N``.

Fault semantics:

- **crash** — permanent: :meth:`ParallelFileSystem.fail_server` marks the
  server dead, rebuilds the failover route map, and interrupts in-flight
  sub-requests with :class:`~repro.pfs.health.ServerUnavailable`.
- **restore** — the inverse of crash: the server rejoins *empty*
  (:meth:`ParallelFileSystem.restore_server` wipes its extents and checksum
  tags), the route map heals, and — when a
  :class:`~repro.online.rebuild.RebuildManager` is attached — a backfill
  moves its placements home. Restoring a live server is a no-op.
- **hang** — transient: the injector puts the server's disk and NIC
  resources on :meth:`~repro.simulate.resources.Resource.hold` for the
  window. In-service sub-requests drain normally (their payloads were
  already in flight), but queued and newly arriving ones stall exactly as
  behind an unresponsive daemon, then proceed when the hang clears. The
  stall is idle time in the busy-time monitor — nothing is serviced.
- **degrade** — the server device's ``slowdown`` becomes the product of
  all currently active degrade factors; when the last window expires the
  product is the exact float 1.0 again.
- **blip** — same product mechanism on the shared network model's
  ``congestion`` multiplier.

When a tracer is attached, every injected fault emits a ``fault``-phase
span on the target's track (network blips target ``"network"``), so Chrome
traces show fault windows inline with the I/O they disturb.
"""

from __future__ import annotations

from collections.abc import Generator
from dataclasses import dataclass

from repro.faults.corruption import corrupt_server
from repro.faults.schedule import (
    DataCorruption,
    FaultEvent,
    FaultSchedule,
    FaultSpecError,
    MdsCrash,
    NetworkBlip,
    ServerCrash,
    ServerDegrade,
    ServerHang,
    ServerRestore,
)
from repro.pfs.filesystem import ParallelFileSystem
from repro.simulate.engine import Simulator
from repro.util.rng import derive_rng


@dataclass(frozen=True)
class FaultStats:
    """Picklable fault + recovery summary of one run.

    The first four fields count *injected* faults; the rest are the client
    stack's resilience counters (see :class:`repro.pfs.health.ServerHealth`).
    Carried on :class:`repro.experiments.harness.RunResult` so parallel
    workers ship it back and determinism tests can compare runs directly.
    """

    crashes: int = 0
    hangs: int = 0
    degrades: int = 0
    blips: int = 0
    corruptions: int = 0
    restores: int = 0
    servers_failed: int = 0
    servers_restored: int = 0
    retries: int = 0
    timeouts: int = 0
    failovers: int = 0
    rerouted_subrequests: int = 0
    exhausted: int = 0
    #: Metadata-cluster resilience (repro.pfs.mds_cluster.ShardHealth);
    #: all zero unless the run had mds-crash faults.
    mds_crashes: int = 0
    mds_recoveries: int = 0
    mds_retries: int = 0
    mds_unavailable: int = 0

    @property
    def total_injected(self) -> int:
        return (
            self.crashes
            + self.hangs
            + self.degrades
            + self.blips
            + self.corruptions
            + self.restores
            + self.mds_crashes
        )


def _product(factors: list[float]) -> float:
    result = 1.0
    for factor in factors:
        result *= factor
    return result


class FaultInjector:
    """Applies one :class:`FaultSchedule` to one simulator + filesystem."""

    def __init__(
        self,
        sim: Simulator,
        pfs: ParallelFileSystem,
        schedule: FaultSchedule,
        seed: int = 0,
    ):
        self.sim = sim
        self.pfs = pfs
        self.schedule = schedule.validate(n_servers=pfs.n_servers)
        #: Seeds the corruption unit-sampling streams (the run seed, so the
        #: same (seed, schedule) poisons the same units in every replay).
        self.seed = seed
        self._by_name = {server.name: i for i, server in enumerate(pfs.servers)}
        self.injected = {
            "crash": 0,
            "restore": 0,
            "hang": 0,
            "degrade": 0,
            "blip": 0,
            "corrupt": 0,
            "mds-crash": 0,
        }
        self.units_poisoned = 0
        self._corrupt_seq = 0
        self._slowdowns: dict[int, list[float]] = {}
        self._blips: list[float] = []
        self._installed = False

    def _resolve(self, server: int | str) -> int:
        if isinstance(server, int):
            if not (0 <= server < self.pfs.n_servers):
                raise FaultSpecError(
                    f"server index {server} out of range 0..{self.pfs.n_servers - 1}"
                )
            return server
        try:
            return self._by_name[server]
        except KeyError:
            known = ", ".join(sorted(self._by_name))
            raise FaultSpecError(f"unknown server {server!r}; servers: {known}") from None

    def _resolve_shard(self, shard: int | str) -> int:
        cluster = self.pfs.mds
        if isinstance(shard, str):
            if shard.startswith("mds") and shard[3:].isdigit():
                shard = int(shard[3:])
            else:
                known = ", ".join(s.name for s in cluster.shards)
                raise FaultSpecError(f"unknown metadata shard {shard!r}; shards: {known}")
        if not (0 <= shard < cluster.n_shards):
            raise FaultSpecError(
                f"shard index {shard} out of range 0..{cluster.n_shards - 1}"
            )
        return shard

    def install(self) -> "FaultInjector":
        """Arm the schedule; call once, before ``sim.run``. Returns self.

        Resolves every server target eagerly so a bad spec fails here with
        :class:`FaultSpecError` rather than mid-simulation.
        """
        if self._installed:
            raise RuntimeError("FaultInjector.install() called twice")
        self._installed = True
        for server in self.pfs.servers:
            server.enable_fault_tracking()
        if self.schedule.corruptions():
            # Corruption is only observable through checksummed reads;
            # arm end-to-end integrity before any unit can be poisoned.
            self.pfs.enable_integrity()
        if self.schedule.mds_crashes():
            # Lookups must run interruptibly so a shard crash can abort
            # them mid-service; armed once, before any event fires.
            self.pfs.mds.arm_interrupts()
        for event in self.schedule.sorted_events():
            server_id = None
            if isinstance(event, MdsCrash):
                server_id = self._resolve_shard(event.shard)
            elif not isinstance(event, NetworkBlip):
                server_id = self._resolve(event.server)
            self.sim.process(self._fire(event, server_id), name=f"fault:{event.kind}")
        return self

    def _fire(self, event: FaultEvent, server_id: int | None) -> Generator:
        sim = self.sim
        if event.time > 0:
            yield sim.timeout(event.time)
        tracer = sim.tracer
        if isinstance(event, ServerCrash):
            server = self.pfs.servers[server_id]
            self.injected["crash"] += 1
            if tracer is not None:
                tracer.on_fault("crash", server.name, sim.now, 0.0)
            self.pfs.fail_server(server_id)
            return
        if isinstance(event, ServerRestore):
            server = self.pfs.servers[server_id]
            if not server.is_failed:
                return  # Restoring a live server is a no-op.
            self.injected["restore"] += 1
            if tracer is not None:
                tracer.on_fault("restore", server.name, sim.now, 0.0)
            # The server rejoins *empty* (its extents and checksum tags are
            # wiped): a crash is permanent data loss on that box, and only
            # the rebuild manager — if attached — re-populates it.
            self.pfs.restore_server(server_id)
            return
        if isinstance(event, MdsCrash):
            cluster = self.pfs.mds
            shard = cluster.shards[server_id]
            if not cluster.crash_shard(server_id):
                return  # Crashing a dead shard is a no-op.
            self.injected["mds-crash"] += 1
            crashed_at = sim.now
            if tracer is not None:
                tracer.on_fault("mds-crash", shard.name, crashed_at, 0.0)
            if cluster.recovery_delay is None:
                return  # Degraded mode: the arc stays down.
            yield sim.timeout(cluster.recovery_delay)
            successor = cluster.recover_shard(server_id)
            if tracer is not None and successor is not None:
                # The recovery span covers the whole outage window.
                tracer.on_fault("mds-recovery", shard.name, crashed_at, sim.now - crashed_at)
            return
        if isinstance(event, ServerHang):
            server = self.pfs.servers[server_id]
            if server.is_failed:
                return  # Hanging a dead server is a no-op.
            self.injected["hang"] += 1
            if tracer is not None:
                tracer.on_fault("hang", server.name, sim.now, event.duration)
            # Stall both service stations; in-service sub-requests drain,
            # queued/arriving ones wait out the window.
            server.disk.hold()
            server.nic.hold()
            yield sim.timeout(event.duration)
            server.disk.resume()
            server.nic.resume()
            return
        if isinstance(event, DataCorruption):
            server = self.pfs.servers[server_id]
            if server.is_failed:
                return  # A dead server's data is unreachable either way.
            self.injected["corrupt"] += 1
            sequence = self._corrupt_seq
            self._corrupt_seq += 1
            rng = derive_rng(self.seed, "corrupt", server_id, sequence)
            self.units_poisoned += corrupt_server(server.checksums, event.rate, rng)
            if tracer is not None:
                tracer.on_fault("corrupt", server.name, sim.now, 0.0)
            return
        if isinstance(event, ServerDegrade):
            device = self.pfs.servers[server_id].device
            self.injected["degrade"] += 1
            if tracer is not None:
                tracer.on_fault(
                    "degrade", self.pfs.servers[server_id].name, sim.now, event.duration
                )
            active = self._slowdowns.setdefault(server_id, [])
            active.append(event.factor)
            device.slowdown = _product(active)
            yield sim.timeout(event.duration)
            active.remove(event.factor)
            # Recompute from the survivors instead of dividing: with no
            # active windows the product is the exact float 1.0 again.
            device.slowdown = _product(active)
            return
        # NetworkBlip
        self.injected["blip"] += 1
        if tracer is not None:
            tracer.on_fault("blip", "network", sim.now, event.duration)
        self._blips.append(event.factor)
        self.pfs.network.congestion = _product(self._blips)
        yield sim.timeout(event.duration)
        self._blips.remove(event.factor)
        self.pfs.network.congestion = _product(self._blips)

    def stats(self) -> FaultStats:
        """Snapshot injected-fault counts + the filesystem's recovery counters."""
        counters = self.pfs.health.counters()
        mds_counters = self.pfs.mds.fault_counters()
        return FaultStats(
            crashes=self.injected["crash"],
            hangs=self.injected["hang"],
            degrades=self.injected["degrade"],
            blips=self.injected["blip"],
            corruptions=self.injected["corrupt"],
            restores=self.injected["restore"],
            **counters,
            **mds_counters,
        )


def inject(
    sim: Simulator,
    pfs: ParallelFileSystem,
    schedule: FaultSchedule,
    seed: int = 0,
) -> FaultInjector:
    """Build and install an injector in one call; returns it (for stats)."""
    return FaultInjector(sim, pfs, schedule, seed=seed).install()
