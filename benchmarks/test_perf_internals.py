"""Performance regression benches for the library's hot paths.

Unlike the figure benches (one deterministic simulation per test), these
use pytest-benchmark's repeated timing to track the speed of the three
paths everything else stands on: the DES kernel's event loop, the striping
decomposition, and the vectorized cost-model sweep that is Algorithm 2's
inner loop. Regressions here multiply into every experiment.
"""

import json
from pathlib import Path

import numpy as np

from repro.core.cost_model import total_cost_vectorized
from repro.core.params import CostModelParameters
from repro.core.stripe_determination import (
    clear_stripe_cache,
    determine_stripes,
    stripe_cache_info,
)
from repro.devices.profiles import DeviceProfile
from repro.obs import EventTracer
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout
from repro.pfs.mapping import (
    StripingConfig,
    critical_params_vectorized,
    decompose,
    decompose_batch_flat,
)
from repro.simulate.engine import Simulator
from repro.simulate.resources import Resource
from repro.util.units import KiB, MiB

PARAMS = CostModelParameters(
    n_hservers=6,
    n_sservers=2,
    unit_network_time=2e-9,
    hserver=DeviceProfile(5e-5, 1.5e-4, 5e-5, 1.5e-4, 2.1e-8, 2.1e-8, "h"),
    sserver=DeviceProfile(1e-5, 4e-5, 2e-5, 6e-5, 1.6e-9, 3.2e-9, "s"),
)

# Read the committed baselines at import time: conftest's pytest_sessionfinish
# rewrites BENCH_perf.json with this session's numbers, so any on-disk read
# during teardown would compare the run against itself.
_BENCH_JSON = Path(__file__).parent.parent / "BENCH_perf.json"


def _baseline_mean(name: str) -> float | None:
    try:
        payload = json.loads(_BENCH_JSON.read_text())
    except (OSError, ValueError):
        return None
    for case in payload.get("cases", []):
        if case.get("name") == name:
            return case.get("mean_s")
    return None


_DES_BASELINE_MEAN = _baseline_mean("test_perf_des_event_loop")


def _session_min(request, name: str) -> float | None:
    """Min wall-time of a bench that already ran in *this* session, if any."""
    session = getattr(request.config, "_benchmarksession", None)
    if session is None:
        return None
    for bench in session.benchmarks:
        stats = getattr(bench, "stats", None)
        if bench.name == name and stats is not None:
            return stats.min
    return None


def _des_event_loop(sim):
    """Ping-pong 10 processes through a capacity-1 resource: ~30k events."""
    resource = Resource(sim, capacity=1)

    def worker():
        for _ in range(500):
            grant = yield resource.request()
            yield sim.timeout(0.001)
            resource.release(grant)

    for _ in range(10):
        sim.process(worker())
    sim.run()
    return sim.now


def test_perf_des_event_loop(benchmark):
    """Ping-pong processes through a capacity-1 resource: ~30k events.

    Coarsely gated against the committed BENCH_perf.json mean: the grant
    paths carry the fault layer's stall check (``Resource._held``), which
    must stay within noise when no faults are configured.
    """

    def run():
        return _des_event_loop(Simulator())

    result = benchmark(run)
    assert result > 0
    if _DES_BASELINE_MEAN is not None:
        assert benchmark.stats.stats.mean <= _DES_BASELINE_MEAN * 2.0


def test_perf_des_event_loop_tracing_off(benchmark, request):
    """Observability guard: with no tracer attached, the event loop must stay
    within noise of the untraced baseline.

    The contractual bound is a <=5% regression. Comparing against a baseline
    measured on a different (or differently loaded) machine can swing far
    more than that, so the primary check is against the plain
    ``test_perf_des_event_loop`` result from *this* session — identical code
    under identical load, min-to-min, with headroom for scheduler noise. The
    committed BENCH_perf.json mean is only a coarse fallback when the benches
    run filtered. A head-to-head in-process comparison of the instrumented
    vs. pre-instrumentation engine measured +1.6% on min times.
    """

    def run():
        sim = Simulator()
        assert sim.tracer is None  # tracing off is the default
        return _des_event_loop(sim)

    result = benchmark(run)
    assert result > 0
    sibling_min = _session_min(request, "test_perf_des_event_loop")
    if sibling_min is not None:
        assert benchmark.stats.stats.min <= sibling_min * 1.15
    elif _DES_BASELINE_MEAN is not None:
        assert benchmark.stats.stats.mean <= _DES_BASELINE_MEAN * 2.0


def test_perf_des_event_loop_tracing_on(benchmark):
    """Overhead visibility for the traced loop (sanity-bounded, not gated).

    Counting dispatched events is derived from the scheduler sequence rather
    than per-event increments, so even traced runs should stay well under 2x.
    """

    def run():
        sim = Simulator()
        sim.tracer = EventTracer()
        makespan = _des_event_loop(sim)
        assert sim.tracer.events_dispatched > 0
        return makespan

    result = benchmark(run)
    assert result > 0
    if _DES_BASELINE_MEAN is not None:
        assert benchmark.stats.stats.mean <= _DES_BASELINE_MEAN * 3.0


def test_perf_pfs_write_path_faults_disabled(benchmark, request):
    """Resilience guard: with no fault schedule, no retry policy, and a
    healthy cluster, the PFS data path must not pay for the fault
    machinery it carries (health routing, retry dispatch, resource holds).

    All hooks stay inert (``retry is None``, ``route_map is None``,
    ``_held == 0``), so the request loop reduces to the pre-faults code —
    a handful of pointer compares per sub-request. Bounded against the
    committed BENCH_perf.json mean with the same coarse cross-machine
    factor the tracing guard uses.
    """

    def run():
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        procs = [handle.write(i * 256 * KiB, 256 * KiB) for i in range(64)]
        sim.run(sim.all_of(procs))
        assert pfs.health.route_map is None  # Hooks never engaged.
        assert not pfs.health.touched
        return sim.now

    result = benchmark(run)
    assert result > 0
    baseline = _baseline_mean("test_perf_pfs_write_path_faults_disabled")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_pfs_write_path_integrity_disabled(benchmark, request):
    """Integrity guard: with no corruption faults and no replication, the
    data path must not pay for the checksum layer it carries.

    The hook is one ``checksums is None`` slot test per serve (the same
    discipline as tracing and faults), so this bench must track the
    faults-disabled bench above — both reduce to the identical pre-hook
    request loop. Bounded against that bench's committed mean so a
    checksum hook that starts allocating or hashing on the disabled path
    shows up even before this case has its own committed baseline.
    """

    def run():
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        procs = [handle.write(i * 256 * KiB, 256 * KiB) for i in range(64)]
        sim.run(sim.all_of(procs))
        assert pfs.integrity is None  # Hook never engaged.
        assert all(server.checksums is None for server in pfs.servers)
        return sim.now

    result = benchmark(run)
    assert result > 0
    for name in ("test_perf_pfs_write_path_integrity_disabled",
                 "test_perf_pfs_write_path_faults_disabled"):
        baseline = _baseline_mean(name)
        if baseline is not None:
            assert benchmark.stats.stats.mean <= baseline * 2.0
            break


def test_perf_pfs_write_path_rebuild_disabled(benchmark, request):
    """Durability guard: with no rebuild manager and no write quorum, the
    data path must not pay for the durability layer it carries.

    The hooks are slot tests per request (``rebuild is None``,
    ``write_quorum is None``, empty ``placement.overrides``), so this bench
    must track the faults-disabled bench — both reduce to the identical
    pre-hook request loop. Bounded against that bench's committed mean so
    a durability hook that starts dict-probing or spawning on the
    disabled path shows up even before this case has its own baseline.
    """

    def run():
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        procs = [handle.write(i * 256 * KiB, 256 * KiB) for i in range(64)]
        sim.run(sim.all_of(procs))
        assert pfs.rebuild is None and pfs.write_quorum is None
        assert not pfs.placement.overrides  # Hooks never engaged.
        return sim.now

    result = benchmark(run)
    assert result > 0
    for name in ("test_perf_pfs_write_path_rebuild_disabled",
                 "test_perf_pfs_write_path_faults_disabled"):
        baseline = _baseline_mean(name)
        if baseline is not None:
            assert benchmark.stats.stats.mean <= baseline * 2.0
            break


def test_perf_mds_cluster_lookup_throughput(benchmark):
    """Sharded metadata lookup path: 32 clients x 100 consults against a
    4-shard finger-routed cluster (ring walk + per-shard service queues).

    Guards the consult hot loop the mds-bench command sweeps; every run's
    metadata lookups go through this loop (one shard by default).
    """
    from repro.pfs.mds_cluster import MetadataCluster

    layout = FixedLayout(2, 2, 64 * KiB)
    names = [f"bench{i:03d}" for i in range(64)]

    def run():
        sim = Simulator()
        cluster = MetadataCluster(4, routing="finger", seed=0)
        cluster.attach(sim)
        for name in names:
            cluster.register(name, layout)

        def client(rank):
            for i in range(100):
                yield from cluster.consult(layout, names[(rank + i) % len(names)])

        sim.run(sim.all_of([sim.process(client(rank)) for rank in range(32)]))
        return cluster.lookup_count

    count = benchmark(run)
    assert count == 3200


def _metadata_storm(n_ops, shards, cache, force_general=False):
    """Replay an open storm (zero-byte reads of one hot file); returns the pfs."""
    from repro.pfs.mds_cluster import MetadataCluster
    from repro.workloads.metadata import MetadataConfig, MetadataWorkload

    sim = Simulator()
    mds = MetadataCluster(shards, routing="finger", seed=0)
    pfs = HybridPFS.build(sim, 2, 1, seed=0, mds=mds, mds_cache=cache)
    handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
    workload = MetadataWorkload(MetadataConfig(n_ops=n_ops, n_processes=16))
    sim.run(handle.request_batch(workload.request_batch(), force_general=force_general))
    return pfs


def test_perf_mds_lookup_storm_columnar_uncached(benchmark):
    """100k-open storm, no cache: the vectorized per-shard FIFO lookup plan.

    Every consult routes to the hot file's owner shard, so this times the
    closed-form queue construction (ring walks, entry rotation, busy-time
    fold) that replaced the blanket ``mds-cluster`` fallback.
    """

    def run():
        pfs = _metadata_storm(100_000, shards=8, cache=False)
        assert pfs.batch_stats["fast_columnar_batches"] == 1, pfs.batch_fallbacks
        assert pfs.mds.lookup_count == 100_000
        return pfs.mds.lookup_count

    assert benchmark(run) > 0
    baseline = _baseline_mean("test_perf_mds_lookup_storm_columnar_uncached")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_mds_lookup_storm_columnar_cached(benchmark):
    """The same 100k-open storm with the client layout cache on: one leader
    consult, everything else coalesced/hit in the columnar plan."""

    def run():
        pfs = _metadata_storm(100_000, shards=8, cache=True)
        assert pfs.batch_stats["fast_columnar_batches"] == 1, pfs.batch_fallbacks
        assert pfs.mds.lookup_count == 1
        return pfs.mds_cache.misses

    assert benchmark(run) == 1
    baseline = _baseline_mean("test_perf_mds_lookup_storm_columnar_cached")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_mds_lookup_scalar_cache_path(benchmark):
    """General-path (per-request DES) storm through ``MetadataCache.lookup``:
    the miss/coalesce/hit generator itself, 2048 processes deep."""

    def run():
        pfs = _metadata_storm(2048, shards=4, cache=True, force_general=True)
        assert pfs.batch_stats["general_batches"] == 1
        assert pfs.mds.lookup_count == 1
        return pfs.mds_cache.coalesced + pfs.mds_cache.hits

    assert benchmark(run) == 2047
    baseline = _baseline_mean("test_perf_mds_lookup_scalar_cache_path")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_decompose(benchmark):
    """Scalar sub-request decomposition, 2000 requests."""
    config = StripingConfig(6, 2, 36 * KiB, 148 * KiB)
    rng = np.random.default_rng(0)
    offsets = rng.integers(0, 2**30, 2000)
    sizes = rng.integers(4 * KiB, 2048 * KiB, 2000)

    def run():
        total = 0
        for offset, size in zip(offsets, sizes):
            total += len(decompose(config, int(offset), int(size)))
        return total

    assert benchmark(run) > 0


def test_perf_critical_params_vectorized(benchmark):
    """Vectorized critical params over 50k requests."""
    config = StripingConfig(6, 2, 36 * KiB, 148 * KiB)
    rng = np.random.default_rng(0)
    offsets = rng.integers(0, 2**30, 50_000).astype(np.int64)
    sizes = rng.integers(4 * KiB, 2048 * KiB, 50_000).astype(np.int64)

    def run():
        s_m, s_n, m, n = critical_params_vectorized(config, offsets, sizes)
        return int(s_m.sum())

    assert benchmark(run) > 0


def test_perf_algorithm2_inner_loop(benchmark):
    """One full h-scan of Algorithm 2: 128 s-candidates x 512 requests."""
    rng = np.random.default_rng(0)
    offsets = rng.integers(0, 2**26, 512).astype(np.int64)
    sizes = np.full(512, 512 * KiB, dtype=np.int64)
    is_read = np.zeros(512, dtype=bool)
    s_candidates = np.arange(4 * KiB, 516 * KiB, 4 * KiB, dtype=np.int64)

    def run():
        costs = total_cost_vectorized(PARAMS, offsets, sizes, is_read, 16 * KiB, s_candidates)
        return float(costs.min())

    assert benchmark(run) > 0


def test_perf_decompose_batch(benchmark):
    """Flat-column numpy decomposition of the same 2000 requests as the scalar bench."""
    config = StripingConfig(6, 2, 36 * KiB, 148 * KiB)
    rng = np.random.default_rng(0)
    offsets = rng.integers(0, 2**30, 2000).astype(np.int64)
    sizes = rng.integers(4 * KiB, 2048 * KiB, 2000).astype(np.int64)

    def run():
        return int(decompose_batch_flat(config, offsets, sizes)[0].shape[0])

    total = benchmark(run)
    assert total == sum(
        len(decompose(config, int(o), int(s))) for o, s in zip(offsets, sizes)
    )


def test_perf_cached_planner(benchmark):
    """Algorithm 2 on a warm region signature: the memoized hot path."""
    rng = np.random.default_rng(0)
    offsets = np.sort(rng.integers(0, 2**26, 512)).astype(np.int64)
    sizes = np.full(512, 512 * KiB, dtype=np.int64)
    is_read = np.zeros(512, dtype=bool)
    clear_stripe_cache()
    cold = determine_stripes(PARAMS, offsets, sizes, is_read)

    def run():
        return determine_stripes(PARAMS, offsets, sizes, is_read)

    warm = benchmark(run)
    assert warm == cold
    info = stripe_cache_info()
    assert info["hits"] >= 1 and info["misses"] == 1


# ---------------------------------------------------------------------------
# Batched replay: the columnar fast path vs per-request DES processes
# ---------------------------------------------------------------------------


def _ior_replay_batch(n_requests: int):
    """A random-offset IOR workload as one columnar batch (64 KiB requests)."""
    from repro.workloads.ior import IORConfig, IORWorkload

    workload = IORWorkload(
        IORConfig(
            n_processes=16,
            request_size=64 * KiB,
            file_size=n_requests * 64 * KiB,
            random_offsets=True,
        )
    )
    return workload.request_batch()


def _replay_batch(batch, force_general: bool = False):
    """One replay on a fresh paper-shaped cluster; returns the simulator."""
    sim = Simulator()
    pfs = HybridPFS.build(sim, 6, 2, seed=0)
    handle = pfs.create_file("f", FixedLayout(6, 2, 64 * KiB))
    done = handle.request_batch(batch, force_general=force_general)
    sim.run(done)
    if force_general:
        assert pfs.batch_stats["general_batches"] == 1
    else:
        assert pfs.batch_stats["fast_batches"] == 1, pfs.batch_fallbacks
        # The IOR shape (constant 64 KiB, stripe-aligned) must hit the
        # vectorized columnar tier, not the per-sub-request event heap.
        assert pfs.batch_stats["fast_columnar_batches"] == 1
    return sim


def test_perf_batched_replay_100k(benchmark):
    """100k-request batched replay on the arithmetic fast path."""
    batch = _ior_replay_batch(100_000)

    def run():
        return _replay_batch(batch).now

    result = benchmark.pedantic(run, rounds=3, iterations=1, warmup_rounds=0)
    assert result > 0
    baseline = _baseline_mean("test_perf_batched_replay_100k")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_batched_replay_1m_speedup(benchmark):
    """The headline bench: 1M-request IOR replay, fast vs general path.

    Times the fast path under pytest-benchmark (one round — a 1M-request
    replay is tens of seconds), then runs the per-request general path once
    with a plain timer. The fast path must be at least 10x faster AND
    byte-identical: same makespan from both paths.
    """
    import time

    batch = _ior_replay_batch(1_000_000)

    def run():
        return _replay_batch(batch).now

    fast_makespan = benchmark.pedantic(run, rounds=1, iterations=1, warmup_rounds=0)
    start = time.perf_counter()
    general_makespan = _replay_batch(batch, force_general=True).now
    general_wall = time.perf_counter() - start
    benchmark.extra_info["general_wall_s"] = general_wall
    benchmark.extra_info["speedup"] = general_wall / benchmark.stats.stats.min
    assert general_makespan == fast_makespan  # bit-identical simulated time
    assert general_wall >= 10.0 * benchmark.stats.stats.min, (
        f"fast path only {general_wall / benchmark.stats.stats.min:.2f}x faster"
    )


def _harl_fig11_write():
    """Fig. 11's four regions as one write batch under a HARL-shaped RST.

    Each region stripes HServers and SServers differently (h != s), so one
    server receives 16K-512K sub-requests and its 4-slot NIC sees per-job
    transfer times. The table is fixed, not planned, to keep calibration
    out of the timing.
    """
    from repro.core.rst import RegionStripeTable, RSTEntry
    from repro.pfs.layout import RegionLevelLayout
    from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload

    regions = (
        (256 * MiB, 64 * KiB, 16 * KiB, 32 * KiB),
        (1024 * MiB, 1024 * KiB, 0, 512 * KiB),
        (2048 * MiB, 256 * KiB, 16 * KiB, 80 * KiB),
        (4096 * MiB, 512 * KiB, 32 * KiB, 160 * KiB),
    )
    entries = []
    offset = 0
    for region_id, (size, _, hstripe, sstripe) in enumerate(regions):
        end = None if region_id == len(regions) - 1 else offset + size
        config = StripingConfig(6, 2, hstripe, sstripe)
        entries.append(RSTEntry(region_id=region_id, offset=offset, end=end, config=config))
        offset += size
    workload = SyntheticRegionWorkload(
        [RegionSpec(size, request, coverage=0.25) for size, request, _, _ in regions],
        n_processes=16,
        seed=1,
    )
    return RegionLevelLayout(RegionStripeTable(entries)), workload.request_batch()


def test_perf_harl_uneven_columnar_replay(benchmark):
    """A HARL write batch with uneven sub-requests on 4-slot NICs.

    Guards the columnar tier's slot kernel: this shape must replay
    vectorized, not fall back to the per-sub-request event heap.
    """
    layout, batch = _harl_fig11_write()

    def run():
        sim = Simulator()
        pfs = HybridPFS.build(sim, 6, 2, seed=0, nic_parallelism=4)
        handle = pfs.create_file("f", layout)
        sim.run(handle.request_batch(batch))
        assert pfs.batch_stats["fast_columnar_batches"] == 1, pfs.batch_fallbacks
        return sim.now

    result = benchmark.pedantic(run, rounds=10, iterations=1, warmup_rounds=1)
    assert result > 0
    baseline = _baseline_mean("test_perf_harl_uneven_columnar_replay")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_harl_plan_fig11(benchmark):
    """Cold HARL Analysis Phase on Fig. 11's four regions at the 4 KiB step.

    Both ops of the four-region workload are planned with the stripe cache
    cleared each round, so every round runs Algorithm 2's full grid search
    through the server-loop cost kernel.
    """
    from repro.core.planner import HARLPlanner
    from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload
    from repro.workloads.traces import trace_arrays

    regions = [
        RegionSpec(size, request, coverage=0.25)
        for size, request in (
            (256 * MiB, 64 * KiB),
            (1024 * MiB, 1024 * KiB),
            (2048 * MiB, 256 * KiB),
            (4096 * MiB, 512 * KiB),
        )
    ]
    traces = [
        trace_arrays(SyntheticRegionWorkload(regions, n_processes=16, op=op).synthetic_trace())
        for op in ("write", "read")
    ]
    planner = HARLPlanner(PARAMS, step=4 * KiB, max_requests_per_region=256)

    def run():
        clear_stripe_cache()
        return [planner.plan_from_arrays(*arrays) for arrays in traces]

    tables = benchmark.pedantic(run, rounds=5, iterations=1, warmup_rounds=1)
    assert all(len(table) >= 1 for table in tables)
    assert stripe_cache_info()["hits"] == 0


def test_perf_des_resilient_serve(benchmark):
    """The scalar DES serve path under faults and QoS, with no fault firing.

    Every request spans several servers, so each sub-request runs as its
    own process through ``_serve_resilient``, which serves it inline under
    an attempt timer on the filesystem's retry watchdog. Every server
    tracks its in-flight serves for crash interruption, and the disks grant
    in weighted-fair order from the handles' QoS tags. This is the serving
    half of ``des-chaos``; its cost is mostly zero-delay events (process
    bootstraps and ends, queued grants).
    """
    from repro.faults.retry import RetryPolicy

    def run():
        sim = Simulator()
        pfs = HybridPFS.build(sim, 3, 1, seed=0, disk_scheduler="wfq")
        pfs.retry = RetryPolicy(timeout=0.5, seed=0)
        for server in pfs.servers:
            server.enable_fault_tracking()
        handles = [pfs.create_file(f"t{i}", FixedLayout(3, 1, 64 * KiB)) for i in range(3)]
        for weight, handle in enumerate(handles, start=1):
            handle.qos = (handle.name, float(weight))
        procs = [
            handles[i % 3].write((i // 3) * 256 * KiB, 256 * KiB) if i % 4 == 0
            else handles[i % 3].read((i // 3) * 256 * KiB, 128 * KiB)
            for i in range(192)
        ]
        sim.run(sim.all_of(procs))
        assert pfs.health.timeouts == 0 and pfs.health.retries == 0
        return sim.now

    result = benchmark(run)
    assert result > 0
    baseline = _baseline_mean("test_perf_des_resilient_serve")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_schedule_many(benchmark):
    """Bulk event insertion vs one million timeout events.

    ``schedule_many`` stages (delay, event) pairs and heapifies once past a
    small threshold; this bench tracks the bulk-insert rate the batched
    executor's completion delivery relies on.
    """
    from repro.simulate.engine import Event

    def run():
        sim = Simulator()
        sim.schedule_many(
            (Event(sim), None, float(i % 997) * 1e-4) for i in range(100_000)
        )
        sim.run()
        return sim.now

    result = benchmark(run)
    assert result > 0
    baseline = _baseline_mean("test_perf_schedule_many")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_serving_scenario(benchmark):
    """Multi-tenant serving front end: WFQ + admission + hedged reads.

    One contention scenario (closed-loop bronze vs hedged gold over 3H+1S)
    timed end to end. Tracks the per-request cost the serving layer adds on
    top of the plain PFS path: token-bucket reservations, WFQ virtual-clock
    stamps at every disk grant, and hedge-timer setup/cancel on every
    replicated read.
    """
    from repro.experiments.harness import Testbed, run_serving
    from repro.serving import make_scenario

    testbed = Testbed(n_hservers=3, n_sservers=1, seed=0)
    scenario = make_scenario(
        ["batch:bronze:clients=6", "web:gold:clients=3"], duration=0.2
    )

    def run():
        return run_serving(testbed, scenario).serving.tenant("web").requests

    result = benchmark(run)
    assert result > 0
    baseline = _baseline_mean("test_perf_serving_scenario")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0


def test_perf_latency_distribution(benchmark):
    """Tail-latency pipeline: histogram observe + interpolated quantiles.

    50k observations into a TAIL_LATENCY_BOUNDS histogram followed by a
    21-point quantile grid — the per-tenant work every serving result and
    BENCH artifact performs. Guards the interpolating ``quantile`` (and the
    snapshot round-trip) against accidental O(buckets^2) regressions.
    """
    from repro.obs.metrics import TAIL_LATENCY_BOUNDS, Histogram, histogram_quantile

    values = (np.random.default_rng(0).lognormal(-6.0, 1.0, 50_000)).tolist()

    def run():
        hist = Histogram("lat", bounds=TAIL_LATENCY_BOUNDS)
        observe = hist.observe
        for value in values:
            observe(value)
        entry = {
            "type": "histogram",
            "bounds": list(hist.bounds),
            "counts": list(hist.counts),
            "count": hist.count,
            "total": hist.total,
            "min": hist.min,
            "max": hist.max,
        }
        return sum(histogram_quantile(entry, q / 20.0) for q in range(21))

    result = benchmark(run)
    assert result > 0
    baseline = _baseline_mean("test_perf_latency_distribution")
    if baseline is not None:
        assert benchmark.stats.stats.mean <= baseline * 2.0
