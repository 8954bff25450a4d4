"""The multi-tenant serving front end: scenarios, simulation, results.

A :class:`ServingScenario` multiplexes N tenants — each with its own
arrival process, tier, and rate limits (:mod:`repro.serving.tiers`) — over
one simulated PFS for a fixed duration:

- every tenant gets its own striped file, replicated per its tier;
- its sub-request processes carry a ``(tenant, weight)`` qos tag, which
  ``WFQResource`` disks (``fair_share=True``) schedule by weighted fair
  queueing;
- arrivals pass the tenant's token bucket (throttle) and admission bound
  (reject) before touching the filesystem;
- hedging tiers route replicated reads through a
  :class:`~repro.serving.hedging.HedgeScheduler`.

Per-tenant end-to-end latencies (arrival → completion, throttle wait
included) land in tail-resolution histograms in an obs
:class:`MetricsRegistry`; the picklable :class:`ServingResult` carries
their snapshots — p50/p99/p999 via the interpolated snapshot quantile —
back across pool boundaries. Runs are seed-deterministic: all randomness
derives from ``derive_rng(seed, "serving", tenant, ...)``, open-loop draws
happen in arrival order, and the scheduler state consulted by hedging is
itself simulation state.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.devices.base import OpType
from repro.obs.metrics import TAIL_LATENCY_BOUNDS, MetricsRegistry, histogram_quantile
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.pfs.layout import FixedLayout
from repro.serving.arrivals import open_loop_arrivals
from repro.serving.hedging import HedgeScheduler
from repro.serving.qos import TokenBucket
from repro.serving.tiers import (
    DEFAULT_TIER_CONFIG,
    ServingSpecError,
    TenantSpec,
    TierSpec,
    parse_tier_config,
)
from repro.util.rng import derive_rng
from repro.util.units import KiB


@dataclass(frozen=True)
class ServingScenario:
    """A complete, picklable description of one multi-tenant serving run."""

    tenants: tuple[TenantSpec, ...]
    #: Tier ladder; empty means the default bronze/silver/gold config.
    tiers: tuple[TierSpec, ...] = ()
    #: Measurement window (simulated seconds); arrivals stop at the end,
    #: in-flight requests drain.
    duration: float = 1.0
    seed: int = 0
    #: Global hedging switch: False leaves every handle on the plain
    #: repairing-read path regardless of tier policy (for A/B comparisons).
    hedging: bool = True
    #: Weighted fair queueing at the server disk stage; False keeps the
    #: testbed's own scheduler (FIFO unless overridden).
    fair_share: bool = True
    stripe: int = 64 * KiB

    def tier_map(self) -> dict[str, TierSpec]:
        if not self.tiers:
            return parse_tier_config(DEFAULT_TIER_CONFIG)
        return {tier.name: tier.validate() for tier in self.tiers}

    def validate(self) -> "ServingScenario":
        if not self.tenants:
            raise ServingSpecError("scenario has no tenants")
        if self.duration <= 0:
            raise ServingSpecError(f"duration must be > 0, got {self.duration}")
        if self.stripe < 1:
            raise ServingSpecError(f"stripe must be >= 1, got {self.stripe}")
        tiers = self.tier_map()
        seen = set()
        for tenant in self.tenants:
            if tenant.name in seen:
                raise ServingSpecError(f"duplicate tenant name {tenant.name!r}")
            seen.add(tenant.name)
            tenant.validate(tiers)
        return self


def make_scenario(
    tenants,
    tier_config: dict | None = None,
    **kwargs: Any,
) -> ServingScenario:
    """Build and validate a scenario from specs/strings and a config dict."""
    from repro.serving.tiers import parse_tenant_spec

    parsed = tuple(
        tenant if isinstance(tenant, TenantSpec) else parse_tenant_spec(tenant)
        for tenant in tenants
    )
    tiers = tuple(parse_tier_config(tier_config).values())
    return ServingScenario(tenants=parsed, tiers=tiers, **kwargs).validate()


# -- results ---------------------------------------------------------------


@dataclass(frozen=True)
class TenantResult:
    """One tenant's outcome: counts plus latency histogram snapshots."""

    name: str
    tier: str
    requests: int
    rejected: int
    failed: int
    throttle_wait_s: float
    bytes_read: int
    bytes_written: int
    #: Histogram snapshot entries (see ``MetricsRegistry.snapshot``):
    #: end-to-end latency of all completed requests, and of reads only.
    latency: dict
    read_latency: dict

    def quantile(self, q: float) -> float:
        return histogram_quantile(self.latency, q)

    @property
    def mean_latency(self) -> float:
        count = self.latency["count"]
        return self.latency["total"] / count if count else 0.0

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def p999(self) -> float:
        return self.quantile(0.999)


@dataclass(frozen=True)
class ServingResult:
    """Picklable outcome of one scenario run (``RunResult.serving``)."""

    duration: float
    makespan: float
    tenants: tuple[TenantResult, ...]
    #: Aggregated hedge counters (launched/won/timers_cancelled/reordered).
    hedge: dict
    #: Full metrics snapshot: per-tenant and per-server histograms.
    metrics: dict

    def tenant(self, name: str) -> TenantResult:
        for tenant in self.tenants:
            if tenant.name == name:
                return tenant
        raise KeyError(f"no tenant {name!r} in result")

    def tier_quantile(self, tier: str, q: float) -> float:
        """Interpolated latency quantile over all tenants of a tier."""
        entries = [t.latency for t in self.tenants if t.tier == tier]
        if not entries:
            raise KeyError(f"no tenants of tier {tier!r} in result")
        merged = MetricsRegistry.merge([{"lat": entry} for entry in entries])
        return histogram_quantile(merged["lat"], q)

    def render(self) -> str:
        """Fixed-width per-tenant latency table (the ``serve`` CLI output)."""
        header = (
            f"{'tenant':<14s} {'tier':<8s} {'requests':>9s} {'rejected':>9s} "
            f"{'failed':>7s} {'mean':>10s} {'p50':>10s} {'p99':>10s} {'p999':>10s}"
        )
        lines = [header, "-" * len(header)]
        for t in self.tenants:
            lines.append(
                f"{t.name:<14s} {t.tier:<8s} {t.requests:>9d} {t.rejected:>9d} "
                f"{t.failed:>7d} {t.mean_latency * 1e3:>8.2f}ms {t.p50 * 1e3:>8.2f}ms "
                f"{t.p99 * 1e3:>8.2f}ms {t.p999 * 1e3:>8.2f}ms"
            )
        if any(self.hedge.values()):
            lines.append(
                "hedges: {launched} launched, {won} won, "
                "{cancelled} timers cancelled, {reordered} reads reordered".format(
                    launched=self.hedge.get("serving.hedge.launched", 0),
                    won=self.hedge.get("serving.hedge.won", 0),
                    cancelled=self.hedge.get("serving.hedge.timers_cancelled", 0),
                    reordered=self.hedge.get("serving.hedge.reordered_reads", 0),
                )
            )
        return "\n".join(lines)


# -- simulation ------------------------------------------------------------


@dataclass
class _TenantState:
    """Mutable per-tenant bookkeeping during one simulation."""

    spec: TenantSpec
    tier: TierSpec
    handle: Any
    bucket: TokenBucket | None
    hist_all: Any
    hist_read: Any
    requests: int = 0
    rejected: int = 0
    failed: int = 0
    throttle_wait: float = 0.0


def simulate_scenario(
    testbed,
    scenario: ServingScenario,
    faults=None,
    retry=None,
    trace: bool | None = None,
):
    """Run one scenario; returns ``(ServingResult, sim, pfs, tracer, injector)``.

    The extras let callers inspect the cluster the run left behind (device
    RNG states, fault and integrity stats) without re-running anything.
    Most callers want :func:`repro.experiments.harness.run_serving`, which
    assembles a full ``RunResult`` instead.
    """
    serving, run = _serve(testbed, scenario, faults, retry, trace)
    return serving, run.sim, run.pfs, run.tracer, run.injector


def _serve(testbed, scenario: ServingScenario, faults, retry, trace):
    """Drive ``scenario`` on a harness cluster; returns ``(ServingResult, run)``.

    The cluster comes from the harness lifecycle with the scenario's seed
    for the fault injector and, with fair sharing on, WFQ disk queues.
    """
    from repro.experiments.harness import _ClusterRun

    scenario.validate()
    tiers = scenario.tier_map()
    bed = testbed
    if scenario.fair_share and bed.disk_scheduler == "fifo":
        bed = replace(bed, disk_scheduler="wfq")
    run = _ClusterRun(bed, scenario.seed, trace, faults, retry)
    sim, pfs, tracer = run.sim, run.pfs, run.tracer
    registry = tracer.registry if tracer is not None else MetricsRegistry()

    hedgers: dict[str, HedgeScheduler] = {}

    def hedger_for(tier: TierSpec) -> HedgeScheduler:
        scheduler = hedgers.get(tier.name)
        if scheduler is None:
            scheduler = HedgeScheduler(pfs, registry=registry, quantile=tier.hedge_quantile)
            hedgers[tier.name] = scheduler
        return scheduler

    states: list[_TenantState] = []
    for spec in scenario.tenants:
        tier = tiers[spec.tier]
        layout = FixedLayout(
            bed.n_hservers, bed.n_sservers, scenario.stripe, replicas=tier.replicas
        )
        handle = pfs.create_file(f"{spec.name}.dat", layout)
        handle.qos = (spec.name, tier.weight)
        if scenario.hedging and tier.hedge and tier.replicas > 1:
            handle.hedge = hedger_for(tier)
        states.append(
            _TenantState(
                spec=spec,
                tier=tier,
                handle=handle,
                bucket=TokenBucket(spec.rate_limit, spec.burst) if spec.rate_limit > 0 else None,
                hist_all=registry.histogram(
                    f"tenant.{spec.name}.latency_s", TAIL_LATENCY_BOUNDS
                ),
                hist_read=registry.histogram(
                    f"tenant.{spec.name}.read_latency_s", TAIL_LATENCY_BOUNDS
                ),
            )
        )

    def draw_request(rng, spec: TenantSpec):
        op = OpType.READ if rng.random() < spec.read_fraction else OpType.WRITE
        slots = max(1, spec.working_set // spec.request_size)
        offset = int(rng.integers(0, slots)) * spec.request_size
        return op, offset

    def admit(state: _TenantState, now: float) -> float | None:
        """Throttle delay for an arrival, or None when rejected."""
        bucket = state.bucket
        if bucket is None:
            return 0.0
        if state.spec.max_queue and bucket.backlog(now) >= state.spec.max_queue:
            return None
        return bucket.reserve(now)

    def perform(state: _TenantState, op, offset: int, arrival: float):
        """Serve one admitted request and record its end-to-end latency."""
        try:
            yield from state.handle.serve_inline(op, offset, state.spec.request_size)
        except (ServerUnavailable, IntegrityError):
            state.failed += 1
            return
        latency = sim.now - arrival
        state.hist_all.observe(latency)
        state.requests += 1
        if op is OpType.READ:
            state.hist_read.observe(latency)

    def closed_client(state: _TenantState, client_id: int):
        """One closed-loop client: request, think, repeat."""
        spec = state.spec
        rng = derive_rng(scenario.seed, "serving", spec.name, "client", client_id)
        while sim.now < scenario.duration:
            arrival = sim.now
            wait = admit(state, arrival)
            if wait is None:
                state.rejected += 1
                # Back off one token interval so a think-free client cannot
                # spin the rejection loop at zero simulated time.
                yield sim.timeout(1.0 / state.bucket.rate)
            else:
                if wait > 0.0:
                    state.throttle_wait += wait
                    yield sim.timeout(wait)
                op, offset = draw_request(rng, spec)
                yield from perform(state, op, offset, arrival)
            if spec.think_time > 0:
                think = float(rng.exponential(spec.think_time))
                if think > 0.0:
                    yield sim.timeout(think)

    # Open-loop requests still in flight, and the event that fires when the
    # last one ends after every driver finished (see the drain below). No
    # finished request process is kept alive.
    inflight = 0
    drained = None

    def request_flow(state: _TenantState, wait: float, op, offset: int, arrival: float):
        nonlocal inflight
        try:
            if wait > 0.0:
                state.throttle_wait += wait
                yield sim.timeout(wait)
            yield from perform(state, op, offset, arrival)
        finally:
            inflight -= 1
            if not inflight and drained is not None:
                drained.succeed()

    def open_driver(state: _TenantState):
        """Open-loop tenant driver: spawn one process per arrival.

        Offsets and ops are drawn here, in arrival order, so the request
        sequence is independent of how completions interleave.
        """
        nonlocal inflight
        spec = state.spec
        rng = derive_rng(scenario.seed, "serving", spec.name, "arrivals")
        index = 0
        for when in open_loop_arrivals(rng, spec, scenario.duration):
            if when > sim.now:
                yield sim.timeout(when - sim.now)
            wait = admit(state, sim.now)
            if wait is None:
                state.rejected += 1
                continue
            op, offset = draw_request(rng, spec)
            inflight += 1
            sim.process(
                request_flow(state, wait, op, offset, sim.now),
                name=f"{spec.name}.req{index}",
            )
            index += 1

    drivers = []
    for state in states:
        if state.spec.arrival == "closed":
            for client_id in range(state.spec.clients):
                drivers.append(
                    sim.process(
                        closed_client(state, client_id),
                        name=f"{state.spec.name}.client{client_id}",
                    )
                )
        else:
            drivers.append(
                sim.process(open_driver(state), name=f"{state.spec.name}.driver")
            )
    run.run(sim.all_of(drivers))
    if inflight:
        drained = sim.event()
        run.run(drained)

    for state in states:
        prefix = f"tenant.{state.spec.name}"
        registry.counter(f"{prefix}.requests").inc(state.requests)
        registry.counter(f"{prefix}.rejected").inc(state.rejected)
        registry.counter(f"{prefix}.failed").inc(state.failed)
        registry.counter(f"{prefix}.throttle_wait_us").inc(
            int(state.throttle_wait * 1e6)
        )
    hedge_totals: dict[str, int] = {}
    for scheduler in hedgers.values():
        for key, value in scheduler.counters().items():
            hedge_totals[key] = hedge_totals.get(key, 0) + value
            registry.counter(key).inc(value)

    snapshot = registry.snapshot()
    tenants = tuple(
        TenantResult(
            name=state.spec.name,
            tier=state.spec.tier,
            requests=state.requests,
            rejected=state.rejected,
            failed=state.failed,
            throttle_wait_s=state.throttle_wait,
            bytes_read=state.handle.bytes_read,
            bytes_written=state.handle.bytes_written,
            latency=snapshot[f"tenant.{state.spec.name}.latency_s"],
            read_latency=snapshot[f"tenant.{state.spec.name}.read_latency_s"],
        )
        for state in states
    )
    result = ServingResult(
        duration=scenario.duration,
        makespan=sim.now,
        tenants=tenants,
        hedge=hedge_totals,
        metrics=snapshot,
    )
    return result, run
