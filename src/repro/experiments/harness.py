"""Run harness: testbeds, workload execution, layout comparison tables.

A :class:`Testbed` captures the cluster shape (M HServers + N SServers,
device and network parameters); :func:`run_workload` builds a fresh
simulator + PFS, runs a workload's rank programs under one layout, and
returns makespan/throughput/per-server busy times; :func:`compare_layouts`
sweeps a set of layouts (the paper's fixed/random/HARL comparison) over one
workload and renders the figure-style table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol

from repro.core.params import CostModelParameters
from repro.core.planner import HARLPlanner
from repro.core.rst import RegionStripeTable
from repro.devices.profiles import MdsProfile
from repro.experiments.cache import cached_calibration, testbed_fingerprint
from repro.experiments.calibrate import DEFAULT_PROBE_SIZES, calibrate_parameters
from repro.middleware.iosig import TraceCollector
from repro.middleware.mpi_sim import SimMPI
from repro.middleware.mpiio import MPIIOFile
from repro.network.link import NetworkModel
from repro.obs.tracer import EventTracer, ObsSnapshot, collect_snapshot, tracing_enabled
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import LayoutPolicy
from repro.pfs.mds_cluster import MetadataCluster, MetadataUnavailable
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB
from repro.workloads.traces import planning_trace


class Workload(Protocol):
    """What the harness needs from a workload object.

    A workload may also define ``trace_columns()``, its offset-sorted
    planning trace as :class:`~repro.workloads.traces.TraceColumns`; the
    planners then take it instead of sorting ``synthetic_trace()``
    (:func:`~repro.workloads.traces.planning_trace`).
    """

    def rank_program(self, mf: MPIIOFile) -> Any: ...

    def synthetic_trace(self) -> list: ...


def workload_processes(workload: Any) -> int:
    """Process count of a workload (direct attribute or via its config)."""
    if hasattr(workload, "n_processes"):
        return workload.n_processes
    return workload.config.n_processes


def workload_bytes(workload: Any) -> int:
    """Total bytes a workload moves (for throughput computation)."""
    if hasattr(workload, "total_bytes"):
        return workload.total_bytes
    config = workload.config
    for attribute in ("total_io_bytes", "total_bytes", "file_size"):
        if hasattr(config, attribute):
            return getattr(config, attribute)
    raise TypeError(f"cannot determine byte volume of {type(workload).__name__}")


@dataclass
class Testbed:
    """Cluster shape + device/network parameters; calibration is cached."""

    __test__ = False  # Not a pytest test class despite the name.

    n_hservers: int = 6
    n_sservers: int = 2
    seed: int = 0
    hdd_kwargs: dict = field(default_factory=dict)
    ssd_kwargs: dict = field(default_factory=dict)
    nic_parallelism: int = 4
    disk_scheduler: str = "fifo"
    network: NetworkModel | None = None
    #: Shards of the metadata service (a MetadataCluster); must be >= 1.
    mds_shards: int = 1
    #: Ring routing mode: "finger" (O(log N)) or "linear".
    mds_routing: str = "finger"
    #: Crash-to-journal-replay delay for mds-crash faults; None disables
    #: recovery (the crashed arc stays degraded for the rest of the run).
    mds_recovery_delay: float | None = 2.0e-3
    #: MDS service-time profile spec (:meth:`MdsProfile.parse` syntax:
    #: "legacy", "calibrated", or "calibrated,open=1e-4,..."). None keeps
    #: the legacy constants — bit-identical to pre-profile builds.
    mds_profile: str | None = None
    #: Enable the client-side layout cache (coalesced lookups, lease
    #: invalidation). Off by default: cache-off runs stay byte-identical
    #: to builds that predate the cache.
    mds_cache: bool = False
    _params_by_bucket: dict | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        if self.mds_shards < 1:
            raise ValueError(f"mds_shards must be >= 1, got {self.mds_shards}")

    def build(self, sim: Simulator) -> HybridPFS:
        """Fresh PFS for one simulation run."""
        profile = (
            MdsProfile.parse(self.mds_profile) if self.mds_profile is not None else None
        )
        mds = MetadataCluster(
            self.mds_shards,
            routing=self.mds_routing,
            recovery_delay=self.mds_recovery_delay,
            seed=self.seed,
            profile=profile,
        )
        return HybridPFS.build(
            sim,
            self.n_hservers,
            self.n_sservers,
            network=self.network or NetworkModel(),
            seed=self.seed,
            hdd_kwargs=self.hdd_kwargs,
            ssd_kwargs=self.ssd_kwargs,
            nic_parallelism=self.nic_parallelism,
            disk_scheduler=self.disk_scheduler,
            mds=mds,
            mds_cache=self.mds_cache,
        )

    def parameters(
        self,
        repeats: int = 200,
        request_hint: int | None = None,
        jobs: int | None = None,
    ) -> CostModelParameters:
        """Calibrated Table-I parameters, cached per probe-size bucket.

        ``request_hint`` tailors the probe sizes to the workload's typical
        request (the paper: "These parameters can vary with different I/O
        patterns", Sec. III-G — calibration is repeated per pattern).
        Probing at sizes near the per-server sub-request scale folds the
        SSD's size-dependent channel behaviour into the fitted β where the
        planner actually operates.

        Caching is two-level: a per-instance dict (``_params_by_bucket``),
        and a process-wide store keyed by the testbed's content fingerprint
        (:mod:`repro.experiments.cache`), so distinct ``Testbed`` instances
        with identical configuration calibrate once per process — and, with
        ``REPRO_CACHE``/``REPRO_CACHE_DIR`` set, once across processes.
        Calibration is a pure function of the fingerprinted inputs, so a
        cache hit is bit-identical to recomputation. ``jobs`` fans the
        per-device probing across processes on a miss.
        """
        if self._params_by_bucket is None:
            self._params_by_bucket = {}
        probe_sizes: tuple[int, ...] | None = None
        bucket = 0
        if request_hint is not None:
            # Sub-requests of an r-byte request span roughly r/(M+N) .. r.
            bucket = max(4 * KiB, 1 << int(request_hint).bit_length())
            probe_sizes = tuple(sorted({max(4 * KiB, bucket >> k) for k in range(4)}))
        cached = self._params_by_bucket.get(bucket)
        if cached is None:
            kwargs = {} if probe_sizes is None else {"probe_sizes": probe_sizes}
            network = self.network or NetworkModel()
            fingerprint = testbed_fingerprint(
                self.n_hservers,
                self.n_sservers,
                network,
                self.hdd_kwargs,
                self.ssd_kwargs,
                probe_sizes if probe_sizes is not None else DEFAULT_PROBE_SIZES,
                repeats,
                self.seed,
                self.nic_parallelism,
            )
            cached = cached_calibration(
                fingerprint,
                lambda: calibrate_parameters(
                    self.n_hservers,
                    self.n_sservers,
                    network=network,
                    hdd_kwargs=self.hdd_kwargs,
                    ssd_kwargs=self.ssd_kwargs,
                    repeats=repeats,
                    seed=self.seed,
                    nic_parallelism=self.nic_parallelism,
                    jobs=jobs,
                    **kwargs,
                ),
            )
            self._params_by_bucket[bucket] = cached
        return cached


@dataclass(frozen=True)
class RunResult:
    """One (workload, layout) simulation outcome."""

    layout_name: str
    makespan: float
    total_bytes: int
    server_busy: dict[str, float]
    #: Observability payload (spans + metrics) when the run was traced;
    #: None otherwise. Picklable, so it rides back from pool workers.
    obs: ObsSnapshot | None = None
    #: Injected-fault + recovery summary when the run had a fault schedule
    #: (:class:`repro.faults.injector.FaultStats`); None on fault-free runs.
    faults: Any = None
    #: Checksum/replication summary (:class:`repro.pfs.integrity.IntegrityStats`)
    #: when the run's integrity layer was active; None otherwise.
    integrity: Any = None
    #: Multi-tenant serving outcome (:class:`repro.serving.ServingResult`,
    #: per-tenant latency histograms + hedge counters) for runs produced by
    #: :func:`run_serving`; None for plain workload runs.
    serving: Any = None
    #: Metadata-cluster summary (:class:`repro.pfs.mds_cluster.MdsStats`:
    #: per-shard lookups, routing hops, crash/recovery/lost-entry counts).
    #: Every harness run fills it; None only on hand-built results.
    mds: Any = None
    #: Client-side layout-cache summary
    #: (:class:`repro.pfs.filesystem.CacheStats`: hit/miss/coalesce/
    #: invalidation/stale counters) when ``Testbed.mds_cache`` was on;
    #: None on cache-off runs.
    cache: Any = None
    #: Durability summary (:class:`repro.online.rebuild.DurabilityStats`:
    #: rebuild volume, bytes-at-risk exposure, MTTR samples, data-loss and
    #: quorum-write counts) when the run had a rebuild manager or quorum
    #: writes; None otherwise.
    durability: Any = None

    @property
    def throughput(self) -> float:
        """Aggregate bytes/second."""
        return self.total_bytes / self.makespan if self.makespan > 0 else 0.0

    @property
    def throughput_mib(self) -> float:
        """Aggregate MiB/second — the figures' y-axis."""
        return self.throughput / MiB


class _ClusterRun:
    """One harness run's cluster lifecycle: set-up, run, teardown.

    Set-up builds the simulator, the DES tracer (``trace``, or the
    ``REPRO_TRACE`` switch when None), the testbed's cluster, the fault
    injector (seeded with ``seed``), the retry policy and the durability
    layer. The runners supply the rest: :meth:`open` the shared file on a
    communicator of the right size, submit the work and :meth:`run` it,
    then :meth:`result` drains outstanding rebuild work and assembles the
    :class:`RunResult`.
    """

    def __init__(
        self,
        testbed: Testbed,
        seed: int,
        trace: bool | None = None,
        faults: Any = None,
        retry: Any = None,
        rebuild: Any = None,
        write_quorum: int | None = None,
    ):
        self.sim = Simulator()
        self.tracer = None
        if trace or (trace is None and tracing_enabled()):
            self.tracer = self.sim.tracer = EventTracer()
        self.pfs = testbed.build(self.sim)
        self.injector = None
        if faults is not None:
            from repro.faults.injector import FaultInjector

            self.injector = FaultInjector(self.sim, self.pfs, faults, seed=seed).install()
        if retry is not None:
            self.pfs.retry = retry
        # Quorum writes ack at ``write_quorum`` durable copies and mirror the
        # rest asynchronously; ``rebuild`` (a RebuildConfig, or True for the
        # defaults) re-replicates crashed servers' placements. Either pushes
        # batches onto the general path (the fast-path blocker counts it).
        self.write_quorum = write_quorum
        if write_quorum is not None:
            if write_quorum < 1:
                raise ValueError(f"write_quorum must be >= 1, got {write_quorum}")
            self.pfs.write_quorum = write_quorum
        self.manager = None
        if rebuild is not None and rebuild is not False:
            from repro.online.rebuild import RebuildConfig, RebuildManager

            config = rebuild if isinstance(rebuild, RebuildConfig) else RebuildConfig()
            self.manager = RebuildManager(
                self.pfs,
                duty_cycle=config.duty_cycle,
                chunk_size=config.chunk_size,
                fail_on_loss=config.fail_on_loss,
            )
        self.file: MPIIOFile | None = None
        self.mds_failed = False

    def open(
        self,
        n_ranks: int,
        layout: LayoutPolicy | RegionStripeTable,
        file_name: str,
        collector: TraceCollector | None = None,
        n_aggregators: int | None = None,
    ) -> tuple[SimMPI, MPIIOFile]:
        """A communicator of ``n_ranks`` ranks and the file it opens."""
        world = SimMPI(self.sim, n_ranks, network=self.pfs.network)
        if collector is not None:
            collector.sim = self.sim  # Trace timestamps follow this run's clock.
        self.file = MPIIOFile.open(
            world.comm, self.pfs, file_name, layout,
            collector=collector, n_aggregators=n_aggregators,
        )
        return world, self.file

    def run(self, done) -> None:
        """Run the simulation until ``done``; the clock then is the makespan."""
        try:
            self.sim.run(done)
        except MetadataUnavailable:
            # Degraded metadata (crashed, unrecovered shard): surface the
            # outcome in RunResult.faults/RunResult.mds, not as a traceback.
            if self.injector is None:
                raise
            self.mds_failed = True
        self.makespan = self.sim.now

    def result(
        self,
        total_bytes: int,
        layout_name: str | None = None,
        serving: Any = None,
        makespan: float | None = None,
    ) -> RunResult:
        """Drain durability work, then summarize the run.

        Rebuild that outlives the workload finishes on its own simulated
        time after the foreground makespan is captured, restoring
        redundancy without inflating the foreground numbers. ``layout_name``
        defaults to the opened file's layout; ``makespan`` to the clock at
        the end of :meth:`run`.
        """
        sim, pfs, manager = self.sim, self.pfs, self.manager
        durability = None
        if manager is not None:
            if manager.active or manager.pending:
                sim.run(sim.process(manager.drain()))
            durability = manager.stats()
        elif self.write_quorum is not None:
            from repro.online.rebuild import quorum_only_stats

            durability = quorum_only_stats(pfs)
        if layout_name is None:
            layout_name = self.file.handle.layout.describe()
        obs = None
        if self.tracer is not None:
            obs = collect_snapshot(self.tracer, pfs, makespan=sim.now)
        # The expected namespace is every live handle's name and committed
        # layout generation, so the cluster's ``lost_entries`` check covers
        # exactly what clients would ask for after the run.
        expected = {name: handle.layout_generation for name, handle in pfs._files.items()}
        return RunResult(
            layout_name=layout_name,
            makespan=self.makespan if makespan is None else makespan,
            total_bytes=total_bytes,
            server_busy=pfs.server_busy_times(),
            obs=obs,
            faults=self.injector.stats() if self.injector is not None else None,
            integrity=pfs.integrity.stats() if pfs.integrity is not None else None,
            serving=serving,
            mds=pfs.mds.stats(expected=expected, failed=self.mds_failed),
            cache=pfs.mds_cache.stats() if pfs.mds_cache is not None else None,
            durability=durability,
        )


def _aggregators(workload: Any) -> int | None:
    """Collective-I/O aggregator count of a workload's config, if any."""
    return getattr(getattr(workload, "config", None), "n_aggregators", None)


def run_workload(
    testbed: Testbed,
    workload: Workload,
    layout: LayoutPolicy | RegionStripeTable,
    layout_name: str | None = None,
    collector: TraceCollector | None = None,
    file_name: str = "shared.dat",
    trace: bool | None = None,
    faults: Any = None,
    retry: Any = None,
    rebuild: Any = None,
    write_quorum: int | None = None,
) -> RunResult:
    """Execute one workload under one layout on a fresh simulated cluster.

    ``trace`` attaches a DES event tracer (:mod:`repro.obs`) and returns
    spans + per-server metrics in ``RunResult.obs``. ``None`` (default)
    defers to the ``REPRO_TRACE`` environment switch, which forked pool
    workers inherit — so a traced sweep merges per-worker snapshots with
    :func:`repro.obs.merge_snapshots` afterwards. Tracing never changes
    simulated times: the traced path samples the same device streams in
    the same order.

    ``faults`` (a :class:`repro.faults.FaultSchedule`) injects the given
    fault events into the run; ``retry`` (a
    :class:`repro.faults.RetryPolicy`) makes the client stack time out,
    back off, and fail over instead of blocking on dead servers. Both are
    seed-deterministic, and with both left ``None`` this function is
    byte-for-byte the fault-free harness.

    ``rebuild`` (a :class:`repro.online.rebuild.RebuildConfig`, or ``True``
    for the defaults) attaches a rebuild manager that re-replicates crashed
    servers' placements and backfills restored ones; ``write_quorum=k``
    acknowledges replicated writes at ``k`` durable copies. Both default off
    and leave fault-free runs byte-identical to builds without them; the
    outcome rides back in ``RunResult.durability``.
    """
    run = _ClusterRun(testbed, testbed.seed, trace, faults, retry, rebuild, write_quorum)
    world, mf = run.open(
        workload_processes(workload), layout, file_name, collector, _aggregators(workload)
    )
    run.run(world.spawn(workload.rank_program(mf)))
    return run.result(workload_bytes(workload), layout_name)


def run_workload_batched(
    testbed: Testbed,
    workload: Any,
    layout: LayoutPolicy | RegionStripeTable,
    layout_name: str | None = None,
    collector: TraceCollector | None = None,
    file_name: str = "shared.dat",
    trace: bool | None = None,
    faults: Any = None,
    retry: Any = None,
    rebuild: Any = None,
    write_quorum: int | None = None,
    force_general: bool = False,
    stats_sink: dict | None = None,
    chunk_size: int | None = None,
) -> RunResult:
    """Execute a workload as one columnar batch on a fresh simulated cluster.

    ``workload`` is either a :class:`~repro.pfs.batch.RequestBatch` or any
    workload object exposing ``request_batch()`` (all five generators do).
    The whole batch is submitted through the middleware in one call, so the
    run takes the arithmetic fast path of :mod:`repro.pfs.batch_exec`
    whenever eligible — tracing, fault schedules, or a retry policy push it
    onto the general per-request path automatically, with identical results.
    ``force_general=True`` pins the general path (the parity baseline).

    ``stats_sink``, when given, receives the transient cluster's batching
    telemetry before it is torn down: ``batch_stats`` (tier counters),
    ``batch_fallbacks`` (per-reason general-path counts), ``subrequests``
    (total sub-requests served across all servers) and ``batches`` (the
    number of batches submitted).

    ``chunk_size`` streams the workload instead: ``iter_request_batches``
    generates windows of at most that many requests, each submitted once
    the previous one completed on the same cluster, so peak memory is
    bounded by one window rather than the whole run.
    """
    from repro.pfs.batch import RequestBatch

    if chunk_size:
        batches = workload.iter_request_batches(chunk_size)
    elif isinstance(workload, RequestBatch):
        batches = (workload,)
    else:
        batches = (workload.request_batch(),)
    run = _ClusterRun(testbed, testbed.seed, trace, faults, retry, rebuild, write_quorum)
    _, mf = run.open(1, layout, file_name, collector)
    total_bytes = n_batches = 0
    for batch in batches:
        run.run(mf.request_batch(batch, force_general=force_general))
        total_bytes += batch.total_bytes
        n_batches += 1
    result = run.result(total_bytes, layout_name)
    if stats_sink is not None:
        pfs = run.pfs
        stats_sink["batch_stats"] = dict(pfs.batch_stats)
        stats_sink["batch_fallbacks"] = dict(pfs.batch_fallbacks)
        stats_sink["subrequests"] = sum(s.subrequests_served for s in pfs.servers)
        stats_sink["batches"] = n_batches
    return result


def run_serving(
    testbed: Testbed,
    scenario: Any,
    faults: Any = None,
    retry: Any = None,
    trace: bool | None = None,
) -> RunResult:
    """Run a multi-tenant serving scenario on a fresh simulated cluster.

    ``scenario`` is a :class:`repro.serving.ServingScenario`: per-tenant
    arrival processes, QoS tiers (WFQ weight + replicas + hedging), token
    buckets, and admission bounds. Per-tenant latency histograms and hedge
    counters land in ``RunResult.serving`` (a picklable
    :class:`~repro.serving.frontend.ServingResult`); ``trace``/``faults``/
    ``retry`` behave exactly as in :func:`run_workload`. Same (seed,
    scenario, schedule) ⇒ identical results, serial or ``--jobs N``.
    """
    from repro.serving.frontend import _serve

    serving, run = _serve(testbed, scenario, faults, retry, trace)
    return run.result(
        sum(t.bytes_read + t.bytes_written for t in serving.tenants),
        f"serving[{len(serving.tenants)} tenants]",
        serving=serving,
    )


def harl_plan(
    testbed: Testbed,
    workload: Workload,
    step: int | None = None,
    max_requests_per_region: int = 256,
    report_sink: list | None = None,
    **planner_kwargs: Any,
) -> RegionStripeTable:
    """Tracing + Analysis phases for a workload on a testbed.

    Uses the workload's synthetic trace (what a profiling run's IOSIG
    collector would record) and the testbed's calibrated parameters, probed
    at the workload's request scale (Sec. III-G recalibrates per I/O
    pattern). The default grid step is coarser than the paper's 4 KB to keep
    sweeps fast; the step-size ablation bench quantifies the precision cost.

    ``report_sink``, when given, receives the planner's
    :class:`~repro.core.planner.PlanReport` (cache traffic, regions) so
    callers can re-export it into an observability registry.
    """
    trace = planning_trace(workload)
    n = trace.sizes.shape[0]
    planner = HARLPlanner(
        testbed.parameters(request_hint=int(int(trace.sizes.sum()) / n) if n else None),
        step=step,
        max_requests_per_region=max_requests_per_region,
        **planner_kwargs,
    )
    rst = planner.plan(trace)
    if report_sink is not None and planner.last_report is not None:
        report_sink.append(planner.last_report)
    return rst


@dataclass(frozen=True)
class ConcurrentRunResult:
    """Outcome of several applications sharing one cluster."""

    makespan: float
    per_app: dict[str, RunResult]

    @property
    def aggregate_throughput_mib(self) -> float:
        total = sum(result.total_bytes for result in self.per_app.values())
        return total / self.makespan / MiB if self.makespan > 0 else 0.0


def run_concurrent_workloads(
    testbed: Testbed,
    apps: list[tuple[str, Workload, LayoutPolicy | RegionStripeTable]],
) -> ConcurrentRunResult:
    """Run several applications simultaneously on one shared cluster.

    Each app gets its own file and its own communicator (its ranks), all
    contending for the same servers — the paper's Discussion scenario of
    "multiple applications with varying I/O workloads", where HARL is
    applied "on different workloads separately". Per-app results measure
    each app's own makespan; the cluster-level makespan covers all of them.
    """
    if not apps:
        raise ValueError("need at least one application")
    run = _ClusterRun(testbed, testbed.seed, trace=False)
    sim = run.sim
    finish_times: dict[str, float] = {}
    joins = []
    for name, workload, layout in apps:
        world, mf = run.open(
            workload_processes(workload), layout, f"{name}.dat", n_aggregators=_aggregators(workload)
        )
        done = world.spawn(workload.rank_program(mf))

        def track(done=done, name=name):
            yield done
            finish_times[name] = sim.now

        joins.append(sim.process(track()))
    run.run(sim.all_of(joins))
    per_app = {
        name: run.result(workload_bytes(workload), name, makespan=finish_times[name])
        for name, workload, _ in apps
    }
    return ConcurrentRunResult(makespan=run.makespan, per_app=per_app)


@dataclass(frozen=True)
class ReplicatedResult:
    """A (workload, layout) outcome replicated over testbed seeds."""

    layout_name: str
    results: tuple[RunResult, ...]

    @property
    def mean_throughput(self) -> float:
        return sum(r.throughput for r in self.results) / len(self.results)

    @property
    def std_throughput(self) -> float:
        mean = self.mean_throughput
        return (sum((r.throughput - mean) ** 2 for r in self.results) / len(self.results)) ** 0.5

    @property
    def mean_throughput_mib(self) -> float:
        return self.mean_throughput / MiB

    @property
    def cv(self) -> float:
        """Relative run-to-run spread (std/mean)."""
        return self.std_throughput / self.mean_throughput if self.mean_throughput else 0.0


def run_replicated(
    testbed: Testbed,
    workload: Workload,
    layout: LayoutPolicy | RegionStripeTable,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    layout_name: str | None = None,
) -> ReplicatedResult:
    """Repeat :func:`run_workload` over testbeds with different device seeds.

    The paper reports single runs; replication quantifies how much of any
    layout's advantage is device-latency luck (the answer should be: none —
    startup draws average out over thousands of sub-requests).
    """
    from dataclasses import replace

    results = []
    for seed in seeds:
        seeded = replace(testbed, seed=seed, _params_by_bucket=None)
        results.append(run_workload(seeded, workload, layout, layout_name=layout_name))
    return ReplicatedResult(
        layout_name=results[0].layout_name, results=tuple(results)
    )


@dataclass
class ComparisonTable:
    """Layout-sweep results for one workload, printable as a figure table."""

    title: str
    results: list[RunResult] = field(default_factory=list)

    def best(self) -> RunResult:
        return max(self.results, key=lambda r: r.throughput)

    def result(self, layout_name: str) -> RunResult:
        for r in self.results:
            if r.layout_name == layout_name:
                return r
        raise KeyError(f"no result for layout {layout_name!r}")

    def improvement_over(self, baseline_name: str, target_name: str | None = None) -> float:
        """Fractional throughput gain of ``target`` (default: best) over a baseline."""
        baseline = self.result(baseline_name)
        target = self.best() if target_name is None else self.result(target_name)
        return target.throughput / baseline.throughput - 1.0

    def render(self) -> str:
        width = max(len(r.layout_name) for r in self.results) + 2
        lines = [self.title, f"{'layout':<{width}} {'MiB/s':>10}  {'makespan(s)':>12}"]
        for r in self.results:
            lines.append(f"{r.layout_name:<{width}} {r.throughput_mib:>10.1f}  {r.makespan:>12.4f}")
        return "\n".join(lines)


def compare_layouts(
    testbed: Testbed,
    workload: Workload,
    layouts: dict[str, LayoutPolicy | RegionStripeTable],
    title: str = "layout comparison",
    jobs: int | None = None,
) -> ComparisonTable:
    """Run ``workload`` under every layout and tabulate throughputs.

    ``jobs`` fans the per-layout runs over a process pool; each run builds
    its own simulator from the picklable testbed, so results — collected in
    layout order — match serial execution exactly.
    """
    from repro.experiments.parallel import RunJob, run_jobs

    job_list = [
        RunJob(testbed=testbed, workload=workload, layout=layout, layout_name=name)
        for name, layout in layouts.items()
    ]
    return ComparisonTable(title=title, results=run_jobs(job_list, jobs=jobs))
