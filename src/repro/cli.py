"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``calibrate`` — probe a testbed's devices and print the Table-I bundle;
- ``plan`` — run the Analysis Phase on a trace CSV and emit the RST JSON;
- ``run-ior`` — simulate IOR under a chosen layout and print throughput;
  ``--faults SPEC`` injects scripted faults (including ``corrupt:`` data
  corruption and ``mds-crash:`` metadata-shard crashes) with client
  retry/failover; ``--replicas N`` mirrors every region N ways so
  corrupted reads self-heal; ``--mds-shards N`` shards the metadata
  namespace across a consistent-hash ring of N journaled servers
  (default 1);
  ``--mds-cache`` turns on the client-side layout cache and
  ``--mds-profile`` selects calibrated MDS service-time costs;
  ``--rebuild`` re-replicates crashed servers' regions onto survivors
  (``--rebuild-duty-cycle`` throttles it) and ``--write-quorum K`` acks
  writes at K durable copies with trailing mirrors asynchronous;
- ``chaos`` — sweep stochastic fault rates, comparing HARL against a
  fixed-stripe baseline under identical fault schedules;
  ``--corrupt-rate`` folds silent data corruption into the sweep;
  ``--mds-crash-rate`` (with ``--mds-shards`` >= 2) folds metadata-shard
  crashes in and gates on zero lost namespace entries; ``--replicas``
  with ``--rebuild`` re-replicates after crashes (``--restore-after``
  rejoins crashed servers) and gates the sweep on zero data loss;
- ``mds-bench`` — open-storm MDS contention on the experiments fabric:
  makespan and lookup ops/s vs. shard count × client-cache on/off,
  linear-ring vs. finger-table routing side by side (``--jobs`` fans the
  sweep out, ``--output`` archives the report);
- ``serve`` — multi-tenant QoS serving front end: tiered tenants
  (bronze/silver/gold) with token-bucket admission control, weighted fair
  queueing at the disk stage, and straggler-aware hedged reads;
  ``--compare-hedging`` A/Bs the tail, ``--assert-p99 gold<bronze``
  gates tier ordering for CI;
- ``scrub`` — write a file under corruption faults, then run a background
  scrub sweep and report what it detected and repaired;
- ``trace`` — run IOR with DES event tracing; export a Chrome trace;
- ``analyze`` — summarize an IOSIG trace CSV;
- ``replay`` — replay a trace CSV under a layout;
- ``run-figure`` — regenerate one paper figure and print its table;
- ``run-all`` — regenerate every figure into one reproduction report
  (exits non-zero if any shape check fails);
- ``list-figures`` — enumerate the reproducible figures.

Every command is pure-offline (simulated cluster); sizes accept suffixes
(``512K``, ``32M``).
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from pathlib import Path

from repro.core.planner import HARLPlanner
from repro.core.stripe_determination import stripe_cache_capacity
from repro.experiments import figures
from repro.experiments.harness import Testbed, harl_plan, run_workload, run_workload_batched
from repro.experiments.parallel import resolve_jobs
from repro.faults import FaultSchedule, FaultSpecError, RetryPolicy, parse_faults
from repro.obs import (
    record_plan_report,
    straggler_summary,
    write_chrome_trace,
    write_spans_csv,
)
from repro.online import DataLossError, RebuildConfig
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.pfs.layout import FixedLayout, RandomLayout, RegionLevelLayout
from repro.util.units import KiB, format_size, parse_size
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.traces import TraceFile, sort_trace

#: Figure name → (callable, kwargs) registry for ``run-figure``.
FIGURES = {
    "fig1a": (figures.fig1a, {}),
    "fig1b": (figures.fig1b, {}),
    "fig6": (figures.fig6, {}),
    "fig7": (figures.fig7, {}),
    "fig8": (figures.fig8, {}),
    "fig9": (figures.fig9, {}),
    "fig10": (figures.fig10, {}),
    "fig11": (figures.fig11, {}),
    "fig12": (figures.fig12, {}),
    "mds-contention": (figures.fig_mds_contention, {}),
    "rebuild": (figures.fig_rebuild, {}),
}


def _add_testbed_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--hservers", type=int, default=6, help="HDD server count (default 6)")
    parser.add_argument("--sservers", type=int, default=2, help="SSD server count (default 2)")
    parser.add_argument("--seed", type=int, default=0, help="testbed RNG seed")


def _number(flag: str, value: float, minimum: float = 0.0, strict: bool = False) -> float:
    """``value`` of a numeric flag, checked finite and ``>= minimum``.

    ``strict`` asks for ``> minimum``. Lower-bound checks of numeric flags
    go through here, so NaN and infinities fail with a user-facing
    ``ValueError`` (a clean exit 2) instead of deep in a sampler or a run.
    The ``(0, 1]`` duty-cycle checks reject both already.
    """
    if not math.isfinite(value):
        raise ValueError(f"{flag} must be a finite number, got {value}")
    if value < minimum or (strict and value == minimum):
        raise ValueError(f"{flag} must be {'>' if strict else '>='} {minimum:g}, got {value}")
    return value


def _add_mds_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--mds-shards",
        type=int,
        default=1,
        metavar="N",
        help="shard the metadata namespace across N >= 1 journaled servers "
        "on a consistent-hash ring (default 1)",
    )
    parser.add_argument(
        "--mds-routing",
        choices=("finger", "linear"),
        default="finger",
        help="ring routing: 'finger' = O(log N) finger-table jumps, "
        "'linear' = successor walk (default finger)",
    )
    parser.add_argument(
        "--mds-recovery-delay",
        default="2e-3",
        metavar="SECONDS",
        help="crash-to-journal-replay delay for mds-crash faults; 'none' "
        "disables recovery and leaves the arc degraded (default 2e-3)",
    )
    parser.add_argument(
        "--mds-cache",
        action=argparse.BooleanOptionalAction,
        default=False,
        help="client-side layout cache: coalesced lookups, lease "
        "invalidation on relayout/failover (default off)",
    )
    parser.add_argument(
        "--mds-profile",
        default=None,
        metavar="SPEC",
        help="MDS service-time profile: 'legacy', 'calibrated', or "
        "'calibrated,open=1.2e-4,stat=6e-5,relayout=4.8e-4,level=8e-6' "
        "(default: legacy constants)",
    )


def _check_mds_profile(profile: str) -> None:
    """Raise a user-facing ``ValueError`` unless ``--mds-profile`` parses."""
    from repro.devices.profiles import MdsProfile

    try:
        MdsProfile.parse(profile)
    except ValueError as exc:
        raise ValueError(f"invalid --mds-profile {profile!r}: {exc}") from None


def _mds_testbed_kwargs(args: argparse.Namespace) -> dict:
    """Validated ``Testbed`` metadata kwargs from ``--mds-*`` flags.

    Raises ``ValueError`` with a user-facing message for a shard count
    below 1 or an unparseable recovery delay — commands turn that into a
    clean exit-2 error instead of a mid-run traceback.
    """
    shards = _number("--mds-shards", getattr(args, "mds_shards", 1), 1)
    raw = getattr(args, "mds_recovery_delay", "2e-3")
    if isinstance(raw, str) and raw.strip().lower() in ("none", "off"):
        delay: float | None = None
    else:
        try:
            delay = float(raw)
        except ValueError:
            raise ValueError(
                f"invalid --mds-recovery-delay {raw!r}: expected seconds or 'none'"
            ) from None
        _number("--mds-recovery-delay", delay)
    profile = getattr(args, "mds_profile", None)
    if profile is not None:
        _check_mds_profile(profile)
    return {
        "mds_shards": shards,
        "mds_routing": getattr(args, "mds_routing", "finger"),
        "mds_recovery_delay": delay,
        "mds_profile": profile,
        "mds_cache": bool(getattr(args, "mds_cache", False)),
    }


#: The fault/durability flag group. Each flag is declared here once and
#: added to a command by name (:func:`_add_fault_args`);
#: :func:`_fault_options` validates whichever a command has.
_FAULT_FLAGS = {
    "--faults": dict(
        metavar="SPEC",
        help="inject faults, e.g. 'crash:sserver0@0.01;hang:hserver1@0.02+0.05;"
        "degrade:0@0.01x3+0.1;blip@0.02x2+0.1;corrupt:hserver0@0.03%%0.5' "
        "(corrupt: events poison stored stripe units)",
    ),
    "--replicas": dict(
        type=int,
        default=1,
        help="mirror every region N ways across the other server class "
        "(default %(default)s; corrupted reads self-heal when > 1)",
    ),
    "--rebuild": dict(
        action=argparse.BooleanOptionalAction,
        default=False,
        help="re-replicate regions lost to crashed servers onto survivors "
        "(requires --replicas >= 2; exits 1 if any region loses every copy)",
    ),
    "--rebuild-duty-cycle": dict(
        type=float,
        default=1.0,
        metavar="FRAC",
        help="fraction of time the rebuild worker may occupy a disk "
        "(default 1.0 = rebuild at full speed)",
    ),
}


def _add_fault_args(parser: argparse.ArgumentParser, *flags: str) -> None:
    """Add the named flags of the fault/durability group (default: all)."""
    for flag in flags or _FAULT_FLAGS:
        parser.add_argument(flag, **_FAULT_FLAGS[flag])


def _fault_options(
    args: argparse.Namespace,
) -> tuple[FaultSchedule | None, RebuildConfig | None]:
    """Validated ``(faults, rebuild)`` from the fault/durability flag group.

    Raises ``ValueError`` (a :class:`FaultSpecError` for bad specs) with a
    user-facing message; commands turn it into a clean exit-2 error.
    """
    replicas = _number("--replicas", getattr(args, "replicas", 1), 1)
    faults = parse_faults(args.faults) if getattr(args, "faults", None) else None
    rebuild = getattr(args, "rebuild", False)
    if rebuild and replicas < 2:
        raise FaultSpecError(
            "--rebuild needs a surviving copy to rebuild from (run with --replicas >= 2)"
        )
    duty_cycle = getattr(args, "rebuild_duty_cycle", 1.0)
    if not 0.0 < duty_cycle <= 1.0:
        raise FaultSpecError(f"--rebuild-duty-cycle must be in (0, 1], got {duty_cycle}")
    return faults, RebuildConfig(duty_cycle=duty_cycle) if rebuild else None


def _add_jobs_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent simulation points "
        "(default: $REPRO_JOBS or serial; 0 = all cores)",
    )


def _add_ior_args(parser: argparse.ArgumentParser, layout: bool = True) -> None:
    parser.add_argument("--op", choices=("read", "write"), default="write")
    parser.add_argument("--processes", type=int, default=16)
    parser.add_argument("--request-size", default="512K")
    parser.add_argument("--file-size", default="32M")
    parser.add_argument("--segments", type=int, default=1, help="IOR segmentCount (interleaved blocks)")
    parser.add_argument("--queue-depth", type=int, default=1, help="outstanding requests per rank")
    parser.add_argument("--sequential", action="store_true", help="in-order offsets (default: random)")
    if layout:
        parser.add_argument(
            "--layout",
            default="harl",
            help="'harl', a fixed stripe size ('64K'), 'random', or 'rand<seed>'",
        )


def _testbed(args: argparse.Namespace) -> Testbed:
    return Testbed(
        n_hservers=args.hservers,
        n_sservers=args.sservers,
        seed=args.seed,
        **_mds_testbed_kwargs(args),
    )


def _ior_workload(args: argparse.Namespace) -> IORWorkload:
    return IORWorkload(
        IORConfig(
            n_processes=args.processes,
            request_size=parse_size(args.request_size),
            file_size=parse_size(args.file_size),
            op=args.op,
            random_offsets=not args.sequential,
            segments=args.segments,
            queue_depth=args.queue_depth,
        )
    )


class LayoutSpecError(ValueError):
    """A ``--layout`` value that names no known layout family."""


#: 'random' and 'rand' select seed 1; 'rand<N>' selects seed N.
_RANDOM_LAYOUT_RE = re.compile(r"^rand(?:om)?([0-9]+)?$")


def _resolve_layout(args: argparse.Namespace, testbed: Testbed, workload, report_sink=None):
    """Turn ``args.layout`` into ``(layout, label, is_harl)``.

    Raises :class:`LayoutSpecError` with a user-facing message for values
    that are neither ``harl``, a random spec, nor a positive stripe size —
    commands turn that into a clean exit-2 error instead of a traceback.
    ``--replicas N`` (validated by :func:`_fault_options`) mirrors every
    region N ways; unsupported layout families also exit cleanly.
    """
    replicas = getattr(args, "replicas", 1)
    name = args.layout.lower()
    if name == "harl":
        rst = harl_plan(testbed, workload, report_sink=report_sink)
        if replicas > 1:
            layout = RegionLevelLayout(rst, replicas=replicas)
            return layout, f"HARL+r{replicas}", True
        return rst, "HARL", True
    match = _RANDOM_LAYOUT_RE.match(name)
    if match is not None:
        if replicas > 1:
            raise LayoutSpecError("--replicas is not supported with random layouts")
        seed = int(match.group(1)) if match.group(1) is not None else 1
        layout = RandomLayout(args.hservers, args.sservers, seed=seed)
        return layout, layout.describe(), False
    try:
        stripe = parse_size(args.layout)
        if stripe < 1:
            raise ValueError(stripe)
    except ValueError:
        raise LayoutSpecError(
            f"invalid --layout {args.layout!r}: expected 'harl', 'random', "
            f"'rand<seed>', or a stripe size like '64K'"
        ) from None
    layout = FixedLayout(args.hservers, args.sservers, stripe, replicas=replicas)
    label = format_size(stripe) if replicas == 1 else f"{format_size(stripe)}+r{replicas}"
    return layout, label, False


def cmd_calibrate(args: argparse.Namespace) -> int:
    testbed = _testbed(args)
    hint = parse_size(args.request_hint) if args.request_hint else None
    params = testbed.parameters(request_hint=hint, jobs=args.jobs)
    print(params.describe())
    for label, profile in (("HServer", params.hserver), ("SServer", params.sserver)):
        print(
            f"{label}: read alpha [{profile.read_alpha_min:.3g}, {profile.read_alpha_max:.3g}] s, "
            f"beta {profile.beta_read:.3g} s/B; "
            f"write alpha [{profile.write_alpha_min:.3g}, {profile.write_alpha_max:.3g}] s, "
            f"beta {profile.beta_write:.3g} s/B"
        )
    return 0


def _load_trace(path: str):
    """The records of the IOSIG trace at ``path``.

    Raises ValueError with a one-line reason when the file cannot be read,
    is not an IOSIG CSV, or holds no records.
    """
    try:
        trace = TraceFile.load(path)
    except OSError as exc:
        raise ValueError(f"cannot read trace {path}: {exc.strerror or exc}") from None
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if not trace:
        raise ValueError(f"trace is empty: {path}")
    return trace


def cmd_plan(args: argparse.Namespace) -> int:
    try:
        trace = _load_trace(args.trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    testbed = _testbed(args)
    mean = int(sum(r.size for r in trace) / len(trace))
    planner = HARLPlanner(
        testbed.parameters(request_hint=mean),
        step=parse_size(args.step) if args.step else None,
    )
    rst = planner.plan(sort_trace(trace))
    print(rst.describe_table())
    if planner.last_report is not None:
        print()
        print(planner.last_report.summary())
    if args.output:
        rst.save(args.output)
        print(f"\nRST written to {args.output}")
    return 0


def _fault_stats_line(stats) -> str:
    return (
        f"faults: {stats.crashes} crashes, {stats.hangs} hangs, "
        f"{stats.degrades} degrades, {stats.blips} blips, "
        f"{stats.corruptions} corruptions | recovery: "
        f"{stats.retries} retries, {stats.timeouts} timeouts, "
        f"{stats.rerouted_subrequests} rerouted subrequests, "
        f"{stats.exhausted} exhausted"
    )


def _integrity_line(stats) -> str:
    return (
        f"integrity: {stats.units_poisoned} units poisoned, {stats.checks} checks, "
        f"{stats.mismatches} mismatches, {stats.repaired} repaired, "
        f"{stats.unrepairable} unrepairable, {stats.silent_corruptions} silent"
    )


def _mds_stats_line(stats) -> str:
    line = (
        f"mds: {stats.n_shards} shard{'s' if stats.n_shards != 1 else ''} "
        f"({stats.routing}), {stats.lookups} lookups, "
        f"mean {stats.mean_hops:.2f} hops (max {stats.hops_max})"
    )
    if stats.crashes or stats.retries or stats.unavailable:
        line += (
            f" | {stats.crashes} crashes, {stats.recoveries} recoveries, "
            f"{stats.records_replayed} records replayed, "
            f"{stats.entries_handed_off} entries handed off, "
            f"{stats.retries} retries, {stats.lost_entries} lost"
        )
    return line


def _mds_failure_cause(stats, recovery_delay: float | None) -> str:
    """Why a run's metadata lookups ran out of retries (``MdsStats``)."""
    if recovery_delay is None:
        return "recovery is off (--mds-recovery-delay none), so the crashed arc stayed down"
    if stats.crashes >= stats.n_shards:
        crashed = (
            "the only metadata shard"
            if stats.n_shards == 1
            else f"all {stats.n_shards} metadata shards"
        )
        return (
            f"{crashed} crashed, so no live shard was left to replay the journal "
            "(run with more --mds-shards than mds-crash faults)"
        )
    return (
        f"lookups exhausted their retries before the journal replay at "
        f"+{recovery_delay:g}s (lower --mds-recovery-delay)"
    )


def _durability_line(stats) -> str:
    line = (
        f"durability: {stats.placements_rebuilt} placements rebuilt "
        f"({format_size(stats.bytes_rebuilt)}), "
        f"at-risk peak {format_size(stats.at_risk_bytes_peak)}, "
        f"exposure {stats.exposure_seconds:.4f}s"
    )
    if stats.mttr_samples:
        line += f", MTTR mean {stats.mttr_mean:.4f}s (max {stats.mttr_max:.4f}s)"
    if stats.data_loss_events:
        line += (
            f" | {stats.data_loss_events} loss events "
            f"({format_size(stats.data_lost_bytes)} lost)"
        )
    return line


def _quorum_line(stats) -> str:
    return (
        f"quorum: {stats.quorum_acks} early acks, "
        f"{stats.trailing_mirrors} trailing mirrors, "
        f"{stats.quorum_window_failures} window failures"
    )


def cmd_run_ior(args: argparse.Namespace) -> int:
    try:
        testbed = _testbed(args)
        workload = _ior_workload(args)
        faults, rebuild = _fault_options(args)
        if args.write_quorum is not None:
            _number("--write-quorum", args.write_quorum, 1)
        layout, label, is_harl = _resolve_layout(args, testbed, workload)
    except ValueError as exc:
        # Bad --layout/--faults/--mds-* specs and inconsistent IOR geometry
        # (file size not a whole number of requests/processes) exit cleanly.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Faults imply a retry policy: without one a crashed server would turn
    # every in-flight sub-request into a hard failure instead of a failover.
    retry = RetryPolicy(seed=args.seed) if faults is not None else None
    trace_out = getattr(args, "trace_out", None)
    try:
        result = run_workload(
            testbed,
            workload,
            layout,
            layout_name=label,
            trace=True if trace_out else None,
            faults=faults,
            retry=retry,
            rebuild=rebuild,
            write_quorum=args.write_quorum,
        )
    except DataLossError as exc:
        print(f"error: data loss: {exc}", file=sys.stderr)
        return 1
    except FaultSpecError as exc:
        # Unknown server names surface when the schedule binds to the PFS.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except IntegrityError as exc:
        # A corrupted read with no replica to heal from surfaces as a typed
        # error, never as silently wrong data.
        print(f"error: unrepairable data corruption: {exc}", file=sys.stderr)
        if args.replicas < 2:
            print("hint: rerun with --replicas 2 to enable read-path repair", file=sys.stderr)
        return 1
    except ServerUnavailable as exc:
        # Every retry attempt of a sub-request met a dead or hung server.
        print(f"error: server unavailable: {exc}", file=sys.stderr)
        return 1
    config = workload.config
    print(
        f"IOR {config.op.value}, {config.n_processes} procs, "
        f"{format_size(config.request_size)} requests, "
        f"{format_size(config.file_size)} file, layout {label}:"
    )
    print(f"  {result.throughput_mib:.1f} MiB/s (makespan {result.makespan:.4f}s)")
    if result.faults is not None:
        print(f"  {_fault_stats_line(result.faults)}")
    if result.integrity is not None:
        print(f"  {_integrity_line(result.integrity)}")
    if result.durability is not None and args.rebuild:
        print(f"  {_durability_line(result.durability)}")
    if result.durability is not None and args.write_quorum is not None:
        print(f"  {_quorum_line(result.durability)}")
    print(f"  {_mds_stats_line(result.mds)}")
    if is_harl:
        rst = getattr(layout, "rst", layout)  # --replicas wraps the RST
        plan = ", ".join(entry.config.describe() for entry in rst.entries)
        print(f"  plan: {plan}")
    if result.obs is not None and trace_out:
        write_chrome_trace(trace_out, result.obs)
        print(f"\nChrome trace ({result.obs.n_spans} spans) written to {trace_out}")
        print(straggler_summary(result.obs))
    if result.mds.failed:
        print(
            "error: metadata shard unavailable after retries; run aborted in "
            f"degraded mode: {_mds_failure_cause(result.mds, testbed.mds_recovery_delay)}",
            file=sys.stderr,
        )
        return 1
    if result.durability is not None and result.durability.data_lost_bytes > 0:
        print(
            f"error: {format_size(result.durability.data_lost_bytes)} of "
            "written data lost every replica before rebuild could copy it",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Sweep stochastic fault rates; report slowdown for HARL vs baseline.

    Every layout at a given rate sees the *same* seeded fault schedule, so
    throughput differences are layout-induced, not fault-schedule luck.
    """
    from repro.experiments.parallel import RunJob, run_jobs

    try:
        testbed = _testbed(args)
        workload = _ior_workload(args)
        rates = [float(token) for token in args.rates.split(",") if token.strip()]
        if not rates:
            raise FaultSpecError("--rates must list at least one fault rate")
        for rate in rates:
            _number("--rates", rate)
        _number("--corrupt-rate", args.corrupt_rate)
        if _number("--mds-crash-rate", args.mds_crash_rate) > 0 and testbed.mds_shards < 2:
            # Random crashes always leave one shard standing to replay the
            # journal, so one shard would silently draw none.
            raise FaultSpecError("--mds-crash-rate needs --mds-shards >= 2")
        _, rebuild = _fault_options(args)
        if args.restore_after is not None:
            _number("--restore-after", args.restore_after, strict=True)
        harl = harl_plan(testbed, workload)
        harl_name = "HARL"
        if args.replicas > 1:
            harl = RegionLevelLayout(harl, replicas=args.replicas)
            harl_name = f"HARL+r{args.replicas}"
        layouts = {harl_name: harl}
        stripe = parse_size(args.baseline_stripe)
        fixed_name = format_size(stripe)
        if args.replicas > 1:
            fixed_name += f"+r{args.replicas}"
        layouts[fixed_name] = FixedLayout(
            args.hservers, args.sservers, stripe, replicas=args.replicas
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    retry = RetryPolicy(seed=args.seed)
    n_servers = args.hservers + args.sservers
    # Fault-free reference runs set the horizon for random schedules and
    # the denominator of the slowdown column.
    reference = {
        name: run_workload(testbed, workload, layout, layout_name=name)
        for name, layout in layouts.items()
    }
    horizon = max(result.makespan for result in reference.values())
    jobs_list, keys = [], []
    for index, rate in enumerate(rates):
        schedule = FaultSchedule.random(
            seed=args.seed * 1000 + index,
            horizon=horizon,
            n_servers=n_servers,
            crash_rate=rate * 0.5,
            hang_rate=rate,
            degrade_rate=rate,
            blip_rate=rate * 0.5,
            corrupt_rate=rate * args.corrupt_rate,
            mds_crash_rate=rate * args.mds_crash_rate,
            n_mds_shards=testbed.mds_shards,
            # With replication in play, random crashes must leave at least
            # one survivor per performance class or rebuild has no targets.
            class_counts=(
                (args.hservers, args.sservers) if args.replicas > 1 else None
            ),
            crash_restore_delay=args.restore_after,
        )
        for name, layout in layouts.items():
            keys.append((rate, name))
            jobs_list.append(
                RunJob(
                    testbed=testbed,
                    workload=workload,
                    layout=layout,
                    layout_name=name,
                    faults=schedule if schedule else None,
                    retry=retry,
                    rebuild=rebuild,
                )
            )
    results = run_jobs(jobs_list, jobs=args.jobs)
    width = max(len(name) for name in layouts) + 2
    with_corruption = args.corrupt_rate > 0
    print(
        f"chaos sweep: {len(rates)} rates x {len(layouts)} layouts, seed {args.seed} "
        f"(rate = expected hangs+degrades per run; crashes/blips at half rate)"
    )
    with_rebuild = args.rebuild
    corrupt_header = f" {'corrupt':>7} {'poisoned':>8}" if with_corruption else ""
    mds_header = f" {'mds-crash':>9} {'lost':>5}"
    rebuild_header = (
        f" {'data-lost':>9} {'at-risk':>8} {'mttr':>8}" if with_rebuild else ""
    )
    print(
        f"{'rate':>6} {'layout':<{width}} {'MiB/s':>10} {'slowdown':>9}  "
        f"{'injected':>8} {'retries':>7} {'failovers':>9} {'rerouted':>8}"
        f"{corrupt_header}{mds_header}{rebuild_header}"
    )
    lost_total = 0
    data_lost_total = 0
    for (rate, name), result in zip(keys, results):
        base = reference[name].throughput
        slowdown = base / result.throughput if result.throughput > 0 else float("inf")
        stats = result.faults
        injected = stats.total_injected if stats is not None else 0
        retries = stats.retries if stats is not None else 0
        failovers = stats.failovers if stats is not None else 0
        rerouted = stats.rerouted_subrequests if stats is not None else 0
        corrupt_cols = ""
        if with_corruption:
            corruptions = stats.corruptions if stats is not None else 0
            poisoned = result.integrity.units_poisoned if result.integrity is not None else 0
            corrupt_cols = f" {corruptions:>7} {poisoned:>8}"
        lost = result.mds.lost_entries
        if result.mds.failed:
            lost = max(lost, 1)  # an aborted run lost its namespace
        lost_total += lost
        mds_cols = f" {result.mds.crashes:>9} {lost:>5}"
        rebuild_cols = ""
        if with_rebuild:
            dur = result.durability
            lost_bytes = dur.data_lost_bytes if dur is not None else 0
            at_risk = dur.at_risk_bytes_peak if dur is not None else 0
            mttr = (
                f"{dur.mttr_mean:.3f}s"
                if dur is not None and dur.mttr_samples
                else "-"
            )
            data_lost_total += lost_bytes
            rebuild_cols = (
                f" {format_size(lost_bytes):>9} {format_size(at_risk):>8} {mttr:>8}"
            )
        print(
            f"{rate:>6.2f} {name:<{width}} {result.throughput_mib:>10.1f} "
            f"{slowdown:>8.2f}x  {injected:>8} {retries:>7} {failovers:>9} {rerouted:>8}"
            f"{corrupt_cols}{mds_cols}{rebuild_cols}"
        )
    verdict = "ok" if lost_total == 0 else "FAIL"
    print(f"mds namespace check: {lost_total} lost entries -> {verdict}")
    if lost_total:
        print(
            "error: metadata entries lost after shard crash recovery",
            file=sys.stderr,
        )
        return 1
    if any(result.cache is not None for result in results):
        stale_total = sum(
            result.cache.stale_hits for result in results if result.cache is not None
        )
        verdict = "ok" if stale_total == 0 else "FAIL"
        print(f"mds cache stale-read audit: {stale_total} stale hits -> {verdict}")
        if stale_total:
            print(
                "error: cached lookups served stale layout generations",
                file=sys.stderr,
            )
            return 1
    if with_rebuild:
        verdict = "ok" if data_lost_total == 0 else "FAIL"
        print(
            f"durability check: {format_size(data_lost_total)} data lost -> {verdict}"
        )
        if data_lost_total:
            print(
                "error: written regions lost every replica before rebuild "
                "could re-replicate them",
                file=sys.stderr,
            )
            return 1
    return 0


def cmd_mds_bench(args: argparse.Namespace) -> int:
    """Open-storm metadata bench on the experiments fabric.

    Each point is a :class:`~repro.experiments.parallel.RunJob` replaying a
    :class:`~repro.workloads.metadata.MetadataWorkload` storm as one
    columnar batch (shard count × routing × cache on/off), so the sweep
    fans out under ``--jobs`` and archives with ``--output`` like any
    figure. The uncached rows show owner-shard queueing (one hot file:
    sharding buys hops, not slots); the cached rows show the client
    cache's lookup-throughput recovery.
    """
    try:
        try:
            shard_counts = tuple(
                int(token) for token in args.shards.split(",") if token.strip()
            )
        except ValueError:
            raise ValueError(
                f"invalid --shards {args.shards!r}: expected comma-separated "
                f"shard counts like '1,2,4,8'"
            ) from None
        if not shard_counts:
            raise ValueError("--shards must list at least one shard count")
        if any(count < 1 for count in shard_counts):
            raise ValueError(f"--shards entries must be >= 1, got {args.shards!r}")
        _number("--ops", args.ops, 1)
        _number("--processes", args.processes, 1)
        if args.ops % args.processes != 0:
            raise ValueError(
                f"--ops ({args.ops}) must divide evenly over --processes "
                f"({args.processes})"
            )
        _number("--spread", args.spread)
        if args.assert_speedup is not None:
            _number("--assert-speedup", args.assert_speedup, strict=True)
        profile = args.mds_profile if args.mds_profile is not None else "calibrated"
        _check_mds_profile(profile)
        routings = ("linear", "finger") if args.routing == "both" else (args.routing,)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    blocks = []
    sweeps = []
    for routing in routings:
        result = figures.fig_mds_contention(
            shard_counts=shard_counts,
            routing=routing,
            n_ops=args.ops,
            n_processes=args.processes,
            spread=args.spread,
            profile=profile,
            jobs=args.jobs,
        )
        sweeps.append(result)
        blocks.append(result.render())
    text = "\n\n".join(blocks)
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    if args.assert_speedup is not None:
        worst, at_shards, at_routing = min(
            (sweep.speedup(count), count, sweep.routing)
            for sweep in sweeps
            for count in shard_counts
        )
        if worst < args.assert_speedup:
            print(
                f"error: cached lookup speedup {worst:.1f}x at {at_shards} "
                f"shards ({at_routing} routing) is below the "
                f"--assert-speedup {args.assert_speedup:g}x gate",
                file=sys.stderr,
            )
            return 1
        print(
            f"cached speedup gate: worst {worst:.1f}x "
            f"({at_shards} shards, {at_routing}) >= {args.assert_speedup:g}x -> ok"
        )
    return 0


def _parse_p99_assert(spec: str) -> tuple[str, str]:
    """``'gold<bronze'`` → ``('gold', 'bronze')`` (faster tier first)."""
    from repro.serving import ServingSpecError

    parts = [token.strip() for token in spec.split("<")]
    if len(parts) != 2 or not all(parts):
        raise ServingSpecError(
            f"--assert-p99 wants 'FASTER_TIER<SLOWER_TIER', got {spec!r}"
        )
    return parts[0], parts[1]


def cmd_serve(args: argparse.Namespace) -> int:
    """Multi-tenant QoS serving: tiers, admission control, WFQ, hedging."""
    from dataclasses import replace

    from repro.experiments.parallel import ServeJob, run_jobs
    from repro.serving import ServingSpecError, make_scenario, parse_tier_config

    testbed = _testbed(args)
    try:
        tier_config = None
        if args.tiers:
            import json

            try:
                tier_config = json.loads(Path(args.tiers).read_text())
            except OSError as exc:
                raise ServingSpecError(f"cannot read --tiers file: {exc}") from exc
            except json.JSONDecodeError as exc:
                raise ServingSpecError(
                    f"--tiers file {args.tiers} is not valid JSON: {exc}"
                ) from exc
        tenants = list(args.tenant)
        if not tenants:
            # Demo default: one closed-loop tenant per tier in the ladder.
            tenants = [f"{name}:{name}" for name in parse_tier_config(tier_config)]
        scenario = make_scenario(
            tenants,
            tier_config=tier_config,
            duration=_number("--duration", args.duration, strict=True),
            seed=args.seed,
            hedging=not args.no_hedging,
            fair_share=not args.no_fair_share,
            stripe=parse_size(args.stripe),
        )
        faults, _ = _fault_options(args)
        if _number("--chaos", args.chaos):
            # Degrade-heavy mix: stragglers, not outages, are what hedging
            # and tier weights are meant to absorb.
            chaos = FaultSchedule.random(
                seed=args.seed + 7919,
                horizon=scenario.duration,
                n_servers=args.hservers + args.sservers,
                degrade_rate=args.chaos,
                blip_rate=args.chaos * 0.5,
                hang_rate=args.chaos * 0.25,
            )
            faults = FaultSchedule(events=faults.events + chaos.events) if faults else chaos
        asserts = [_parse_p99_assert(spec) for spec in args.assert_p99]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    retry = RetryPolicy(seed=args.seed) if faults is not None else None
    scenarios = [scenario]
    if args.compare_hedging:
        scenarios.append(replace(scenario, hedging=False))
    jobs_list = [
        ServeJob(testbed=testbed, scenario=each, faults=faults, retry=retry)
        for each in scenarios
    ]
    try:
        results = run_jobs(jobs_list, jobs=args.jobs)
    except FaultSpecError as exc:
        # Unknown server names surface when the schedule binds to the PFS.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = results[0]
    serving = result.serving
    fault_note = f", {len(faults)} fault events" if faults else ""
    print(
        f"serving: {len(serving.tenants)} tenants over "
        f"{args.hservers}h+{args.sservers}s, {scenario.duration:g}s window, "
        f"seed {args.seed}{fault_note}"
    )
    print(serving.render())
    if result.faults is not None:
        print(_fault_stats_line(result.faults))
    if result.integrity is not None:
        print(_integrity_line(result.integrity))
    if args.compare_hedging:
        baseline = results[1].serving
        print("\nhedging off (same seed, same faults):")
        print(baseline.render())
        for tier in sorted({t.tier for t in serving.tenants}):
            on = serving.tier_quantile(tier, 0.99)
            off = baseline.tier_quantile(tier, 0.99)
            cut = (1.0 - on / off) * 100.0 if off > 0 else 0.0
            print(
                f"  {tier}: p99 {on * 1e3:.2f}ms hedged vs "
                f"{off * 1e3:.2f}ms unhedged ({cut:+.1f}% tail cut)"
            )
    failed = False
    for faster, slower in asserts:
        try:
            left = serving.tier_quantile(faster, 0.99)
            right = serving.tier_quantile(slower, 0.99)
        except KeyError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        ok = left < right
        print(
            f"assert p99[{faster}] < p99[{slower}]: "
            f"{left * 1e3:.2f}ms < {right * 1e3:.2f}ms -> {'ok' if ok else 'FAIL'}"
        )
        failed = failed or not ok
    return 1 if failed else 0


def cmd_scrub(args: argparse.Namespace) -> int:
    """Write under corruption faults, then scrub and report the repairs.

    Runs an IOR write on a (by default replicated) layout while a
    ``corrupt:`` fault schedule poisons stored stripe units, then sweeps the
    whole namespace with a :class:`~repro.online.scrub.Scrubber`. Exits 1 if
    any corruption went silent (detected but neither repaired nor reported)
    — the invariant the integrity layer guarantees never happens.
    """
    from repro.experiments.harness import _ClusterRun
    from repro.online.scrub import Scrubber

    testbed = _testbed(args)
    try:
        workload = _ior_workload(args)
        faults, _ = _fault_options(args)
        layout, label, _ = _resolve_layout(args, testbed, workload)
        chunk_size = _number("--chunk-size", parse_size(args.chunk_size), 1)
        if not (0 < args.duty_cycle <= 1):
            raise ValueError(f"--duty-cycle must be in (0, 1], got {args.duty_cycle}")
        # Unknown server names surface when the schedule binds to the PFS.
        run = _ClusterRun(testbed, testbed.seed, trace=False, faults=faults)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sim, pfs = run.sim, run.pfs
    pfs.enable_integrity()  # scrub verifies even when no faults are scheduled
    world, mf = run.open(workload.config.n_processes, layout, "shared.dat")
    run.run(world.spawn(workload.rank_program(mf)))
    write_makespan = run.makespan
    if faults is not None:
        # Let any corruption events scheduled past the write horizon fire.
        last = max((event.time for event in faults.events), default=0.0)
        if last > sim.now:

            def idle(delay=last - sim.now):
                yield sim.timeout(delay)

            sim.run(sim.process(idle()))
    scrubber = Scrubber(pfs, chunk_size=chunk_size, duty_cycle=args.duty_cycle)
    sim.run(scrubber.start())
    report = scrubber.last_report
    stats = pfs.integrity.stats()
    print(
        f"wrote {format_size(workload.config.file_size)} under layout {label} "
        f"in {write_makespan:.4f}s"
    )
    print(f"  {report.summary()}")
    print(f"  {_integrity_line(stats)}")
    if stats.silent_corruptions != 0:
        print(
            f"error: {stats.silent_corruptions} corruption(s) escaped silently",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import metrics_summary

    testbed = _testbed(args)
    reports: list = []
    try:
        workload = _ior_workload(args)
        layout, label, _ = _resolve_layout(args, testbed, workload, report_sink=reports)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = run_workload(testbed, workload, layout, layout_name=label, trace=True)
    obs = result.obs
    assert obs is not None  # trace=True guarantees a snapshot
    if reports:
        # Fold the planner's cache/region diagnostics into the same summary.
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        record_plan_report(registry, reports[0])
        from dataclasses import replace

        obs = replace(obs, metrics=MetricsRegistry.merge([obs.metrics, registry.snapshot()]))
    write_chrome_trace(args.out, obs)
    print(f"Chrome trace ({obs.n_spans} spans) written to {args.out}")
    print(f"open chrome://tracing or https://ui.perfetto.dev and load {args.out}")
    if args.csv:
        write_spans_csv(args.csv, obs)
        print(f"CSV span dump written to {args.csv}")
    print()
    print(f"layout {label}: {result.throughput_mib:.1f} MiB/s (makespan {result.makespan:.4f}s)")
    print()
    print(metrics_summary(obs))
    return 0


def cmd_run_figure(args: argparse.Namespace) -> int:
    import inspect

    try:
        fn, kwargs = FIGURES[args.figure]
    except KeyError:
        print(
            f"error: unknown figure {args.figure!r}; use one of {', '.join(FIGURES)}",
            file=sys.stderr,
        )
        return 2
    kwargs = dict(kwargs)
    # fig6 has no parallelizable points; only pass jobs where accepted.
    if "jobs" in inspect.signature(fn).parameters:
        kwargs["jobs"] = args.jobs
    result = fn(**kwargs)
    text = result.render()
    print(text)
    if args.output:
        Path(args.output).write_text(text + "\n")
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    from repro.workloads.replay import ReplayConfig, TraceReplayWorkload

    try:
        trace = _load_trace(args.trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    workload = TraceReplayWorkload(
        trace, ReplayConfig(preserve_think_time=args.think_time)
    )
    testbed = _testbed(args)
    try:
        layout, label, _ = _resolve_layout(args, testbed, workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    runner = run_workload_batched if args.batched else run_workload
    result = runner(testbed, workload, layout, layout_name=label)
    print(
        f"replayed {len(trace)} requests on {workload.n_processes} ranks, layout {label}:"
    )
    print(f"  {result.throughput_mib:.1f} MiB/s (makespan {result.makespan:.4f}s)")
    return 0


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux ru_maxrss is KiB)."""
    import resource

    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes
        return peak / (1024.0 * 1024.0)
    return peak / 1024.0


def cmd_replay_bench(args: argparse.Namespace) -> int:
    import time

    testbed = _testbed(args)
    try:
        _number("--requests", args.requests, 1)
        _number("--processes", args.processes, 1)
        request_size = _number("--request-size", parse_size(args.request_size), 1)
        _number("--chunk-size", args.chunk_size)
        if args.general and args.chunk_size:
            raise ValueError("--general is incompatible with --chunk-size")
        # IOR needs a whole number of requests per rank; round up so any
        # --requests value works.
        per_rank = -(-args.requests // args.processes)
        n_requests = per_rank * args.processes
        workload = IORWorkload(
            IORConfig(
                n_processes=args.processes,
                request_size=request_size,
                file_size=n_requests * request_size,
                op=args.op,
                random_offsets=not args.sequential,
            )
        )
        layout, label, _ = _resolve_layout(args, testbed, workload)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if n_requests != args.requests:
        print(f"note: rounding --requests up to {n_requests} ({per_rank} per rank)")

    # A chunked replay streams the workload as windows of --chunk-size
    # requests on one long-lived cluster, so peak RSS is bounded by the
    # window, not the run (the 100M-request mode).
    batch = workload if args.chunk_size else workload.request_batch()
    start = time.perf_counter()
    fast = run_workload_batched(
        testbed, batch, layout, layout_name=label, stats_sink=(sink := {}),
        chunk_size=args.chunk_size,
    )
    fast_wall = time.perf_counter() - start
    makespan = fast.makespan
    stats = sink["batch_stats"]
    fallbacks = sink["batch_fallbacks"]
    n_subrequests = sink["subrequests"]
    if args.chunk_size:
        print(
            f"chunked replay of {n_requests} requests "
            f"({format_size(fast.total_bytes)}, {sink['batches']} chunks of "
            f"<= {args.chunk_size}): {fast_wall:.3f}s wall, makespan {makespan:.4f}s"
        )
    else:
        print(
            f"batched replay of {len(batch)} requests ({format_size(batch.total_bytes)}): "
            f"{fast_wall:.3f}s wall, makespan {makespan:.4f}s, "
            f"{fast.throughput_mib:.1f} MiB/s"
        )
    rate = n_subrequests / fast_wall if fast_wall > 0 else float("inf")
    tiers = (
        f"{stats['fast_columnar_batches']} columnar + "
        f"{stats['fast_batches'] - stats['fast_columnar_batches']} event-heap + "
        f"{stats['general_batches']} general"
    )
    print(f"  {n_subrequests} sub-requests, {rate:,.0f} subreq/s; batches: {tiers}")
    if fallbacks:
        breakdown = ", ".join(f"{k}={v}" for k, v in sorted(fallbacks.items()))
        print(f"  fallback reasons: {breakdown}")
    else:
        print("  fallback reasons: none")
    peak_mb = _peak_rss_mb()
    print(f"  peak RSS {peak_mb:.0f} MiB")
    if args.max_rss_mb and peak_mb > args.max_rss_mb:
        print(
            f"error: peak RSS {peak_mb:.0f} MiB exceeds --max-rss-mb {args.max_rss_mb}",
            file=sys.stderr,
        )
        return 1
    if args.general:
        start = time.perf_counter()
        general = run_workload_batched(
            testbed, batch, layout, layout_name=label, force_general=True
        )
        general_wall = time.perf_counter() - start
        match = "identical" if general.makespan == makespan else "MISMATCH"
        print(
            f"general path: {general_wall:.3f}s wall, makespan {general.makespan:.4f}s "
            f"({match}); speedup {general_wall / fast_wall:.1f}x"
        )
        if match == "MISMATCH":
            return 1
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    from repro.workloads.analysis import analyze_trace, render_report

    try:
        trace = _load_trace(args.trace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_report(analyze_trace(trace), title=args.trace))
    return 0


def cmd_run_all(args: argparse.Namespace) -> int:
    from repro.experiments.report import generate_report

    names = tuple(args.figures) if args.figures else None
    report = generate_report(names=names, jobs=args.jobs)
    text = report.render()
    if args.output:
        Path(args.output).write_text(text + "\n")
        print(f"report written to {args.output}")
    else:
        print(text)
    return 0 if report.all_passed else 1


def cmd_list_figures(args: argparse.Namespace) -> int:
    descriptions = {
        "fig1a": "per-server I/O time under the 64K default layout",
        "fig1b": "throughput vs request size x fixed stripe size",
        "fig6": "a planned Region Stripe Table, before/after merging",
        "fig7": "IOR read/write across fixed/random/HARL layouts",
        "fig8": "IOR throughput vs process count",
        "fig9": "IOR throughput vs request size",
        "fig10": "IOR throughput vs HServer:SServer ratio",
        "fig11": "non-uniform four-region workload",
        "fig12": "BTIO with collective I/O",
        "mds-contention": "open-storm makespan/ops-per-s vs shards x cache",
        "rebuild": "rebuild duty cycle vs MTTR / slowdown under crashes",
    }
    for name in FIGURES:
        print(f"{name:14s} {descriptions[name]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="HARL (ICPP 2015) reproduction: simulated hybrid PFS experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("calibrate", help="probe the testbed into Table-I parameters")
    _add_testbed_args(p)
    _add_jobs_arg(p)
    p.add_argument("--request-hint", help="probe near this request size (e.g. 512K)")
    p.set_defaults(fn=cmd_calibrate)

    p = sub.add_parser("plan", help="Analysis Phase: trace CSV -> RST")
    _add_testbed_args(p)
    p.add_argument("--trace", required=True, help="IOSIG trace CSV path")
    p.add_argument("--step", help="Algorithm 2 grid step (default: adaptive)")
    p.add_argument("--output", help="write the RST JSON here")
    p.set_defaults(fn=cmd_plan)

    p = sub.add_parser("run-ior", help="simulate IOR under one layout")
    _add_testbed_args(p)
    _add_ior_args(p)
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="record a DES event trace and write Chrome trace_event JSON here",
    )
    _add_fault_args(p)
    p.add_argument(
        "--write-quorum",
        type=int,
        default=None,
        metavar="K",
        help="acknowledge writes once K copies are durable; remaining "
        "mirrors complete asynchronously (default: all copies synchronous)",
    )
    _add_mds_args(p)
    p.set_defaults(fn=cmd_run_ior)

    p = sub.add_parser(
        "chaos", help="sweep stochastic fault rates: HARL vs fixed baseline"
    )
    _add_testbed_args(p)
    _add_ior_args(p, layout=False)  # chaos always compares HARL vs baseline
    _add_jobs_arg(p)
    _add_mds_args(p)
    p.add_argument(
        "--mds-crash-rate",
        type=float,
        default=0.0,
        help="expected metadata-shard crashes per run at sweep rate 1 "
        "(default 0; crashes are drawn only while another shard survives, "
        "so it needs --mds-shards >= 2; exits 1 if any namespace entry is "
        "lost after recovery)",
    )
    p.add_argument(
        "--rates",
        default="0,1,2,4",
        help="comma-separated expected fault counts per run (default 0,1,2,4)",
    )
    p.add_argument(
        "--baseline-stripe",
        default="64K",
        metavar="SIZE",
        help="fixed-layout stripe to compare HARL against (default 64K)",
    )
    p.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.0,
        help="expected silent-corruption events per run at sweep rate 1 "
        "(default 0 = no corruption; scales with the sweep rate)",
    )
    _add_fault_args(p, "--replicas", "--rebuild", "--rebuild-duty-cycle")
    p.add_argument(
        "--restore-after",
        type=float,
        default=None,
        metavar="SECONDS",
        help="rejoin every crashed server this many seconds after its crash "
        "(models chassis swap; rebuild backfills its regions on rejoin)",
    )
    p.set_defaults(fn=cmd_chaos)

    p = sub.add_parser(
        "serve",
        help="multi-tenant QoS serving: tiers, admission control, hedged reads",
    )
    _add_testbed_args(p)
    _add_jobs_arg(p)
    p.add_argument(
        "--tenant",
        action="append",
        default=[],
        metavar="SPEC",
        help="tenant spec 'name[:tier[:key=value,...]]' (repeatable), e.g. "
        "'web:gold:clients=8,think=0.01' or 'batch:bronze:arrival=poisson,"
        "rate=200,queue=64'; default: one closed-loop tenant per tier",
    )
    p.add_argument(
        "--tiers",
        metavar="PATH",
        help="JSON file mapping tier name -> {weight, replicas, hedge, "
        "hedge_quantile} (default: built-in bronze/silver/gold ladder)",
    )
    p.add_argument(
        "--duration",
        type=float,
        default=1.0,
        help="measurement window in simulated seconds (default 1.0)",
    )
    p.add_argument("--stripe", default="64K", help="stripe size (default 64K)")
    _add_fault_args(p, "--faults")
    p.add_argument(
        "--chaos",
        type=float,
        default=0.0,
        metavar="RATE",
        help="add a seeded degrade-heavy random schedule (RATE = expected "
        "degrades over the window; blips/hangs at half/quarter rate)",
    )
    p.add_argument(
        "--no-hedging",
        action="store_true",
        help="disable hedged reads even for tiers that request them",
    )
    p.add_argument(
        "--no-fair-share",
        action="store_true",
        help="keep FIFO disk queues instead of weighted fair queueing",
    )
    p.add_argument(
        "--compare-hedging",
        action="store_true",
        help="also run the identical scenario with hedging off and report "
        "the per-tier p99 delta",
    )
    p.add_argument(
        "--assert-p99",
        action="append",
        default=[],
        metavar="A<B",
        help="exit 1 unless tier A's p99 beats tier B's, e.g. 'gold<bronze' "
        "(repeatable; for CI gating)",
    )
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "mds-bench",
        help="open-storm metadata bench: shard count x routing x cache on/off",
    )
    p.add_argument(
        "--shards",
        default="1,2,4,8",
        help="comma-separated shard counts to sweep (default 1,2,4,8)",
    )
    p.add_argument(
        "--routing",
        choices=("finger", "linear", "both"),
        default="both",
        help="ring routing mode(s) to sweep (default both)",
    )
    p.add_argument("--ops", type=int, default=4096, help="total opens (default 4096)")
    p.add_argument(
        "--processes", type=int, default=16, help="client processes (default 16)"
    )
    p.add_argument(
        "--spread",
        type=float,
        default=0.0,
        help="issue-time spread in seconds; 0 = one instantaneous burst (default 0)",
    )
    p.add_argument(
        "--mds-profile",
        default=None,
        metavar="SPEC",
        help="MDS service-time profile (default: calibrated)",
    )
    p.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="exit 1 unless the cached/uncached ops-per-second ratio is "
        ">= X at every swept shard count (for CI gating)",
    )
    p.add_argument("--output", help="also write the table to this file")
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_mds_bench)

    p = sub.add_parser(
        "scrub",
        help="write under corruption faults, then scrub-sweep and repair",
    )
    _add_testbed_args(p)
    _add_ior_args(p)
    _add_fault_args(p, "--faults", "--replicas")
    # Poison servers 0 and 1 and keep a mirror to repair from by default.
    p.set_defaults(faults="corrupt:0@0.01%0.25;corrupt:1@0.02", replicas=2)
    p.add_argument("--chunk-size", default="4M", help="bytes verified per scrub read (default 4M)")
    p.add_argument(
        "--duty-cycle",
        type=float,
        default=1.0,
        help="fraction of time the scrubber may keep a device busy (default 1.0)",
    )
    p.set_defaults(fn=cmd_scrub)

    p = sub.add_parser(
        "trace", help="simulate IOR with full DES tracing; export Chrome trace + metrics"
    )
    _add_testbed_args(p)
    _add_ior_args(p)
    p.add_argument("--out", default="trace.json", help="Chrome trace_event JSON path")
    p.add_argument("--csv", help="also write the raw span dump as CSV here")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("analyze", help="summarize an IOSIG trace CSV")
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.set_defaults(fn=cmd_analyze)

    p = sub.add_parser(
        "replay-bench",
        help="time a large columnar replay on the batched fast path "
        "(optionally against the general per-request path)",
    )
    _add_testbed_args(p)
    p.add_argument("--requests", type=int, default=100_000, help="request count (default 100000)")
    p.add_argument("--request-size", default="64K")
    p.add_argument("--processes", type=int, default=16)
    p.add_argument("--op", choices=("read", "write"), default="write")
    p.add_argument("--sequential", action="store_true", help="in-order offsets (default: random)")
    p.add_argument("--layout", default="64K", help="fixed stripe size (default 64K)")
    p.add_argument(
        "--general",
        action="store_true",
        help="also run the per-request general path; verify identical makespan and report speedup",
    )
    p.add_argument(
        "--chunk-size",
        type=int,
        default=0,
        metavar="N",
        help="stream the workload as windows of N requests on one cluster "
        "(memory-bounded; generation and replay are interleaved)",
    )
    p.add_argument(
        "--max-rss-mb",
        type=float,
        default=0,
        metavar="MB",
        help="exit non-zero if the process's peak RSS exceeds this bound",
    )
    p.set_defaults(fn=cmd_replay_bench)

    p = sub.add_parser("replay", help="replay a trace CSV under a layout")
    _add_testbed_args(p)
    p.add_argument("--trace", required=True, help="trace CSV path")
    p.add_argument("--layout", default="harl", help="'harl' or a fixed stripe size")
    p.add_argument(
        "--think-time", action="store_true", help="preserve recorded inter-arrival gaps"
    )
    p.add_argument(
        "--batched",
        action="store_true",
        help="submit the trace as one columnar batch (fast path when eligible)",
    )
    p.set_defaults(fn=cmd_replay)

    p = sub.add_parser("run-figure", help="regenerate one paper figure")
    p.add_argument("figure", help="figure name (see list-figures)")
    p.add_argument("--output", help="also write the table to this file")
    _add_jobs_arg(p)
    p.set_defaults(fn=cmd_run_figure)

    p = sub.add_parser(
        "run-all", help="regenerate every figure into one reproduction report"
    )
    p.add_argument("--output", help="write the markdown report here (default: stdout)")
    _add_jobs_arg(p)
    p.add_argument(
        "figures", nargs="*", help="optional subset of figure names (default: all)"
    )
    p.set_defaults(fn=cmd_run_all)

    p = sub.add_parser("list-figures", help="list reproducible figures")
    p.set_defaults(fn=cmd_list_figures)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    try:
        # Read the environment settings once, up front, so a malformed one
        # is a usage error on every command rather than a traceback from
        # whichever layer reads it first.
        resolve_jobs()
        stripe_cache_capacity()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
