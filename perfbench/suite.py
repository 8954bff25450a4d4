"""The benchmark workloads: inputs from a seed, one timed pass, its gates.

Each workload is a :class:`Workload` with two timed steps:

- ``setup(seed, scale)`` makes everything a pass needs from the seed, with
  program calls only: generated requests, calibration and HARL's Analysis
  Phase. It runs cold: the calibration and stripe caches are cleared and a
  fresh ``Testbed`` is made each time.
- ``run(inputs, probe)`` is the timed body: one complete simulation on
  freshly built clusters, which the :class:`~probe.Probe` records. It
  returns an :class:`Outcome` whose ``sim`` values must be bit-identical
  from pass to pass.

and two untimed ones: ``expect(inputs)`` works out, once per run, what the
gates compare against (requests generated, arrivals offered), and
``check(expected, outcome)`` turns one pass's outcome into gates.

``scale`` shrinks request counts and simulated durations; 1.0 is the
benchmark, the tests use small values.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.core.stripe_determination import clear_stripe_cache
from repro.devices.base import OpType
from repro.experiments import harness
from repro.experiments.cache import clear_calibration_cache
from repro.faults import FaultSchedule, RetryPolicy, parse_faults
from repro.middleware.iosig import TraceCollector
from repro.obs.metrics import MetricsRegistry, histogram_quantile
from repro.online import RebuildConfig
from repro.pfs.layout import FixedLayout, RegionLevelLayout
from repro.serving import make_scenario
from repro.serving.arrivals import open_loop_arrivals
from repro.serving.tiers import TenantSpec
from repro.simulate.engine import Simulator
from repro.util.rng import derive_rng
from repro.util.units import KiB, MiB
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload
from repro.workloads.temporal import PhaseSpec, TemporalPhaseWorkload


@dataclass
class Outcome:
    """What one timed pass produced."""

    #: Operations submitted, and those that failed, were rejected, could not
    #: be repaired or lost data.
    requests: int
    failed_ops: int
    #: Simulated bytes moved over simulated seconds (the paper's y-axis).
    bytes_moved: int
    sim_seconds: float
    #: Per-request simulated latency in seconds, timed from the due time.
    latencies: np.ndarray
    #: Workload-specific simulated results; compared across passes.
    sim: dict
    #: Correctness gates: (name, passed, detail).
    gates: list = field(default_factory=list)
    #: RunResults of harness-driven passes (their ``obs`` when traced).
    runs: list = field(default_factory=list)
    #: (p50, p99, samples) in seconds when the run reports its own quantiles
    #: instead of per-request latencies.
    tail: tuple | None = None
    #: What ``Workload.check`` reads besides ``runs``.
    facts: Any = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loop: str
    setup: Callable[[int, float], Any]
    run: Callable[[Any, Any], Outcome]
    #: Nominal host seconds of one pass and of one set-up at scale 1. They
    #: fix how many of each a run of a given length takes, so the sample
    #: counts do not depend on how fast the program under test is.
    pass_s: float
    setup_s: float
    expect: Callable[[Any], Any] | None = None
    check: Callable[[Any, Outcome], list] | None = None
    #: Extra once-per-run gates outside the timed passes.
    extra_gates: Callable[[Any], list] | None = None


def _gate(name: str, ok: bool, detail: str = "") -> tuple[str, bool, str]:
    return (name, bool(ok), detail)


def _cold_testbed(**kwargs) -> harness.Testbed:
    clear_calibration_cache()
    clear_stripe_cache()
    return harness.Testbed(**kwargs)


def _replay(testbed, layout, batches, name="bench.dat"):
    """Replay batches back to back on one fresh cluster; per-batch latencies."""
    sim = Simulator()
    pfs = testbed.build(sim)
    handle = pfs.create_file(name, layout)
    latencies = []
    for batch in batches:
        done = handle.request_batch(batch)
        sim.run(done)
        latencies.append(done.value)
    return pfs, handle, sim.now, latencies


def _served_bytes(pfs) -> int:
    return sum(server.bytes_served for server in pfs.servers)


def _parity(testbed, layout, batches, label: str) -> tuple[str, bool, str]:
    """Replay batches on the fast tiers and on the general DES path; compare.

    Both runs must agree per request, and on makespan and busy times.
    """
    results = []
    for force in (False, True):
        sim = Simulator()
        pfs = testbed.build(sim)
        handle = pfs.create_file("slice.dat", layout)
        latencies = []
        for batch in batches:
            done = handle.request_batch(batch, force_general=force)
            sim.run(done)
            latencies.append(done.value.tobytes())
        results.append((sim.now, latencies, pfs.server_busy_times(), dict(pfs.batch_stats)))
    fast, general = results
    tiers = (fast[3]["fast_batches"] == len(batches)
             and general[3]["general_batches"] == len(batches))
    sizes = " + ".join(str(len(batch)) for batch in batches)
    return _gate(f"fast tiers == force_general per request ({label})",
                 fast[:3] == general[:3] and tiers, f"{sizes} requests")


# -- harl-replay --------------------------------------------------------------

#: Fig. 11's four regions: (size, request size). Coverage samples a share of
#: each region's request slots.
HARL_REGIONS = ((256 * MiB, 64 * KiB), (1024 * MiB, 1024 * KiB),
                (2048 * MiB, 256 * KiB), (4096 * MiB, 512 * KiB))
HARL_COVERAGE = 0.25
HARL_STEP = 4 * KiB  # Algorithm 2's grid step in the paper


def _harl_setup(seed: int, scale: float):
    testbed = _cold_testbed(n_hservers=6, n_sservers=2, seed=0)
    regions = [RegionSpec(size, request, coverage=HARL_COVERAGE * scale)
               for size, request in HARL_REGIONS]
    ops = []
    for op in (OpType.WRITE, OpType.READ):
        workload = SyntheticRegionWorkload(regions, n_processes=16, op=op, seed=seed)
        batch = workload.request_batch()
        rst = harness.harl_plan(testbed, workload, step=HARL_STEP)
        ops.append((op, batch, rst))
    return testbed, ops


def _harl_run(inputs, probe) -> Outcome:
    testbed, ops = inputs
    sim: dict = {}
    gates = []
    harl_bytes = harl_time = fixed_time = 0
    harl_latencies = []
    requests = 0
    for op, batch, rst in ops:
        for label, layout in (("harl", RegionLevelLayout(rst)), ("64K", FixedLayout(6, 2, 64 * KiB))):
            pfs, _, makespan, (latency,) = _replay(testbed, layout, [batch])
            served = _served_bytes(pfs)
            gates.append(_gate(f"bytes served == bytes requested ({op.value}, {label})",
                               served == batch.total_bytes, f"{served} vs {batch.total_bytes}"))
            sim[f"{op.value}.{label}.makespan"] = makespan
            sim[f"{op.value}.{label}.latency"] = latency.tobytes()
            sim[f"{op.value}.{label}.busy"] = pfs.server_busy_times()
            requests += len(batch)
            if label == "harl":
                harl_bytes += batch.total_bytes
                harl_time += makespan
                harl_latencies.append(latency)
            else:
                fixed_time += makespan
        sim[f"gain.{op.value}"] = sim[f"{op.value}.64K.makespan"] / sim[f"{op.value}.harl.makespan"]
    sim["gain"] = fixed_time / harl_time
    return Outcome(
        requests=requests,
        failed_ops=0,
        bytes_moved=harl_bytes,
        sim_seconds=harl_time,
        latencies=np.concatenate(harl_latencies),
        sim=sim,
        gates=gates,
    )


def _harl_parity(inputs) -> list:
    testbed, ops = inputs
    return [
        _parity(testbed, RegionLevelLayout(rst), [batch[: min(len(batch), 1_000)]],
                f"harl-replay {op.value} slice")
        for op, batch, rst in ops
    ]


# -- des-chaos, part 1: checkpoint-restart ------------------------------------

DURABLE_FAULTS = (
    "crash:hserver1@{crash};restore:hserver1@{restore};"
    "corrupt:sserver0@{c0}%0.2;corrupt:hserver3@{c1}%0.2"
)


def _durable_setup(seed: int, scale: float):
    testbed = _cold_testbed(n_hservers=6, n_sservers=2, seed=0, mds_shards=2, mds_cache=True)
    writes = max(2, int(256 * scale))
    workload = TemporalPhaseWorkload(
        [PhaseSpec(256 * KiB, writes, OpType.WRITE), PhaseSpec(64 * KiB, 4 * writes, OpType.READ)],
        n_processes=8,
        seed=seed,
    )
    # The write phase ends near 2.6 s of simulated time at scale 1: crash an
    # HServer mid-write, bring it back during the reads, and corrupt stored
    # units on both server classes.
    faults = parse_faults(DURABLE_FAULTS.format(
        crash=1.6 * scale, restore=3.6 * scale, c0=0.6 * scale, c1=1.0 * scale))
    # Workload generation: every rank's request stream of every phase.
    streams = [
        (rank, workload.phase_requests(index, rank))
        for index in range(len(workload.phases))
        for rank in range(workload.n_processes)
    ]
    return testbed, workload, faults, streams, seed


def _durable_expect(inputs) -> Counter:
    _, _, _, streams, _ = inputs
    return Counter(
        (rank, op.value, offset, size) for rank, stream in streams for op, offset, size in stream
    )


def _durable_run(inputs, probe) -> Outcome:
    testbed, workload, faults, streams, seed = inputs
    collector = TraceCollector(sim=None)
    result = harness.run_workload(
        testbed,
        workload,
        FixedLayout(6, 2, 64 * KiB, replicas=2),
        collector=collector,
        trace=probe.traced,
        faults=faults,
        retry=RetryPolicy(seed=seed),
        rebuild=RebuildConfig(duty_cycle=0.5),
        write_quorum=1,
    )
    durability, integrity = result.durability, result.integrity
    failed = (result.faults.exhausted + integrity.unrepairable
              + durability.data_loss_events + int(result.mds.failed))
    handle = probe.built[-1].open_file("shared.dat")
    completed = handle.bytes_read + handle.bytes_written
    return Outcome(
        requests=sum(len(stream) for _, stream in streams),
        failed_ops=failed,
        bytes_moved=result.total_bytes,
        sim_seconds=result.makespan,
        latencies=np.empty(0),
        sim={
            "makespan": result.makespan,
            "busy": result.server_busy,
            "faults": result.faults,
            "integrity": integrity,
            "durability": durability,
            "mds": result.mds,
            "cache": result.cache,
        },
        gates=[_gate("bytes completed == bytes requested", completed == workload.total_bytes,
                     f"{completed} vs {workload.total_bytes}")],
        runs=[result],
        facts=collector.records,
    )


def _durable_check(expected: Counter, records) -> list:
    issued = Counter((r.rank, r.op.value, r.offset, r.size) for r in records)
    return [_gate("requests issued == requests generated", issued == expected,
                  f"{sum(issued.values())} vs {sum(expected.values())}")]


# -- des-chaos, part 2: multi-tenant serving ----------------------------------

QOS_RATES = (500.0, 1000.0, 1500.0)  # offered requests/s per tenant
QOS_TIERS = ("gold", "silver", "bronze")
QOS_READS = 0.7
QOS_DURATION = 2.0  # simulated seconds of arrivals per rate
QOS_LIMIT_MS = 25.0  # gold p99 limit for sim_slo_rate
QOS_DRAIN_S = 0.1  # allowed backlog drain after arrivals stop
#: The chaos schedule ``repro serve --chaos 2 --seed 0`` draws over the
#: window (six network blips for the 2 s window). It is the same for every
#: benchmark seed: which seed happened to draw a long hang would otherwise
#: decide the tail latency.
QOS_CHAOS = 2.0
QOS_CHAOS_SEED = 7919


def _qos_tenants(rate: float) -> list[TenantSpec]:
    return [
        TenantSpec(name=tier, tier=tier, arrival="poisson", rate=rate,
                   read_fraction=QOS_READS, working_set=64 * MiB)
        for tier in QOS_TIERS
    ]


def _offered(seed: int, spec: TenantSpec, duration: float) -> tuple[int, int, int]:
    """(arrivals, read bytes, written bytes) one tenant's open loop offers.

    Replays the serving front end's arrival stream: per arrival one
    inter-arrival draw, one op draw and one offset draw, in that order.
    """
    rng = derive_rng(seed, "serving", spec.name, "arrivals")
    slots = max(1, spec.working_set // spec.request_size)
    arrivals = reads = 0
    for _ in open_loop_arrivals(rng, spec, duration):
        arrivals += 1
        reads += rng.random() < spec.read_fraction
        rng.integers(0, slots)
    return arrivals, reads * spec.request_size, (arrivals - reads) * spec.request_size


def _qos_setup(seed: int, scale: float):
    testbed = _cold_testbed(n_hservers=6, n_sservers=2, seed=0)
    duration = QOS_DURATION * scale
    faults = FaultSchedule.random(
        seed=QOS_CHAOS_SEED, horizon=duration, n_servers=8, degrade_rate=QOS_CHAOS,
        blip_rate=QOS_CHAOS * 0.5, hang_rate=QOS_CHAOS * 0.25,
    )
    plans = [(rate, make_scenario(_qos_tenants(rate), duration=duration, seed=seed))
             for rate in QOS_RATES]
    return testbed, faults, plans, seed


def _qos_expect(inputs) -> list[dict]:
    """Per rate, each tenant's offered (arrivals, read bytes, written bytes)."""
    _, _, plans, seed = inputs
    return [{spec.name: _offered(seed, spec, scenario.duration) for spec in scenario.tenants}
            for _, scenario in plans]


def _qos_run(inputs, probe) -> Outcome:
    testbed, faults, plans, seed = inputs
    sim: dict = {}
    runs = []
    requests = failed = moved = 0
    elapsed = 0.0
    slo_rate = 0.0
    for rate, scenario in plans:
        result = harness.run_serving(
            testbed, scenario, faults=faults, retry=RetryPolicy(seed=seed), trace=probe.traced
        )
        runs.append(result)
        serving = result.serving
        tag = f"r{rate:g}"
        for tenant in serving.tenants:
            requests += tenant.requests + tenant.failed + tenant.rejected
            failed += tenant.failed + tenant.rejected
            moved += tenant.bytes_read + tenant.bytes_written
            sim[f"{tenant.name}.{tag}.p99"] = tenant.p99
            sim[f"{tenant.name}.{tag}.counts"] = (tenant.requests, tenant.failed, tenant.rejected)
            sim[f"{tenant.name}.{tag}.throttle_wait_s"] = tenant.throttle_wait_s
        sim[f"{tag}.makespan"] = serving.makespan
        sim[f"{tag}.hedge"] = dict(serving.hedge)
        sim[f"{tag}.faults"] = result.faults
        sim[f"{tag}.integrity"] = result.integrity
        elapsed += serving.makespan
        gold_p99 = serving.tier_quantile("gold", 0.99)
        drained = serving.makespan - serving.duration <= QOS_DRAIN_S * scenario.duration / QOS_DURATION
        if gold_p99 * 1e3 <= QOS_LIMIT_MS and drained:
            slo_rate = max(slo_rate, rate)
    sim["slo_rate"] = slo_rate
    # The latency metric pools the gold tier below the top rate. At the top
    # rate the system nears saturation and the gold p99 moves by about 10%
    # with the arrival draw; it is reported per rate in the traced run and
    # checked against the limit by slo_rate.
    gold = [run.serving.tenant("gold") for run in runs[:-1]]
    pooled = MetricsRegistry.merge([{"latency": tenant.latency} for tenant in gold])["latency"]
    return Outcome(
        requests=requests,
        failed_ops=failed,
        bytes_moved=moved,
        sim_seconds=elapsed,
        latencies=np.empty(0),
        sim=sim,
        runs=runs,
        tail=(histogram_quantile(pooled, 0.5), histogram_quantile(pooled, 0.99),
              pooled["count"]),
    )


def _qos_check(expected: list[dict], runs) -> list:
    gates = []
    for rate, offered, run in zip(QOS_RATES, expected, runs):
        tag = f"r{rate:g}"
        for tenant in run.serving.tenants:
            arrivals, read_bytes, write_bytes = offered[tenant.name]
            handled = tenant.requests + tenant.failed + tenant.rejected
            gates.append(_gate(f"arrivals handled == arrivals offered ({tenant.name}, {tag})",
                               handled == arrivals, f"{handled} vs {arrivals}"))
            if not (tenant.failed or tenant.rejected):
                gates.append(_gate(
                    f"bytes completed == bytes offered ({tenant.name}, {tag})",
                    (tenant.bytes_read, tenant.bytes_written) == (read_bytes, write_bytes),
                    f"{tenant.bytes_read}+{tenant.bytes_written} vs {read_bytes}+{write_bytes}"))
    return gates


# -- des-chaos ----------------------------------------------------------------
#
# The scalar DES under faults, in two parts on two clusters: the durable
# checkpoint-restart, then the three-rate serving sweep. One workload runs
# both, so every layer they exercise is measured while the benchmark keeps
# two workloads and long runs.

#: The checkpoint runs at half the size it had as a workload of its own,
#: so a pass stays short next to the host's slow stretches. The serving
#: part keeps its full 2 s of arrivals per rate: with fewer arrivals its
#: p99 moves with the seed.
DURABLE_SCALE = 0.5


def _des_setup(seed: int, scale: float):
    return _durable_setup(seed, DURABLE_SCALE * scale), _qos_setup(seed, scale)


def _des_expect(inputs):
    durable, qos = inputs
    return _durable_expect(durable), _qos_expect(qos)


def _des_run(inputs, probe) -> Outcome:
    durable_inputs, qos_inputs = inputs
    durable = _durable_run(durable_inputs, probe)
    qos = _qos_run(qos_inputs, probe)
    return Outcome(
        requests=durable.requests + qos.requests,
        failed_ops=durable.failed_ops + qos.failed_ops,
        bytes_moved=durable.bytes_moved + qos.bytes_moved,
        sim_seconds=durable.sim_seconds + qos.sim_seconds,
        latencies=np.empty(0),
        # ``slo_rate`` and the serving results stay at the top level, where
        # the per-layer report reads them.
        sim={**qos.sim, **{f"durable.{key}": value for key, value in durable.sim.items()}},
        gates=durable.gates + qos.gates,
        runs=durable.runs + qos.runs,
        # Only the serving part has requests that arrive over time.
        tail=qos.tail,
        facts=(durable.facts, qos.runs),
    )


def _des_check(expected, outcome: Outcome) -> list:
    durable, qos = expected
    records, serving_runs = outcome.facts
    return _durable_check(durable, records) + _qos_check(qos, serving_runs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "harl-replay",
            "Fig. 11 four-region workload: HARL Analysis Phase in set-up, "
            "HARL vs fixed 64K replays on the event-heap tier",
            "burst: every request due at t=0, 16 ranks",
            _harl_setup,
            _harl_run,
            pass_s=1.35,
            setup_s=1.6,
            extra_gates=_harl_parity,
        ),
        Workload(
            "des-chaos",
            "scalar DES under faults: replicated checkpoint write and restart read "
            "(crash, rejoin, corruption, rebuild), then 3-tier open-loop serving "
            "under degrade/blip/hang",
            "closed loop for the checkpoint: 8 ranks, one outstanding request each, "
            "no think time; then open loop: Poisson arrivals at "
            + "/".join(f"{r:g}" for r in QOS_RATES) + " req/s per tenant, 3 tenants",
            _des_setup,
            _des_run,
            pass_s=4.5,
            setup_s=0.0055,
            expect=_des_expect,
            check=_des_check,
        ),
    )
}
