"""Benchmark of the HARL simulator: one workload per run.

    python3 perfbench/run.py --workload harl-replay --seed 1 --seconds 50 --trace 0

Run it from the root of a checkout; it imports the program from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run and writes its spans to ``--out``. The last
line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``. A failed correctness gate still prints it, then
exits with code 1; a checkout without ``src/repro`` exits with code 2 and
prints no result.

A run alternates cold set-ups and passes. Every host timing is the fastest
of several samples, taken per top-level call: ``wall_s`` over the passes,
``setup_s`` over the set-ups. How many samples a run takes follows from
``--seconds`` and the workload's nominal times only. The simulated results
of every pass must be bit-identical. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import pickle
import resource
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Environment switches of the program that would change what is measured:
#: persistent caches, process pools, tracing, the fast-path kill switch.
ENV_SWITCHES = (
    "REPRO_CACHE",
    "REPRO_CACHE_DIR",
    "REPRO_JOBS",
    "REPRO_TRACE",
    "REPRO_BATCH_FAST",
    "REPRO_STRIPE_CACHE",
)

#: Fewest set-up/pass cycles a run takes.
MIN_CYCLES = 3
#: Host seconds of one timed set-up sample. A workload whose set-up is
#: shorter repeats it back to back within the sample, so no timed body is a
#: few milliseconds long.
SETUP_BODY_S = 0.5

#: End-to-end metrics: name -> unit (printed with ``--trace 0``).
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "subreq_per_s": "1/s",
    "peak_rss_mib": "MiB",
    "sim_mib_s": "MiB/s",
    "sim_p99_ms": "ms",
}

QOS_RATE_TAGS = ("r500", "r1000", "r1500")

#: Per-layer metrics: name -> unit (printed with ``--trace 1``). A value of 0
#: means the workload does not exercise that layer.
PER_LAYER = {
    "workloads.gen_s": "s",
    "experiments.calibrate_s": "s",
    "core.plan_s": "s",
    "core.regions": "count",
    "core.stripe_cache_hits": "count",
    "core.stripe_cache_misses": "count",
    "pfs.build_s": "s",
    "pfs.mapping.decompose_s": "s",
    "pfs.mapping.subreqs": "count",
    "pfs.batch.write_pass_s": "s",
    "pfs.batch.read_pass_s": "s",
    "pfs.batch.replay_s": "s",
    "pfs.batch.columnar_batches": "count",
    "pfs.batch.event_heap_batches": "count",
    "pfs.batch.general_batches": "count",
    "pfs.batch.columnar_share": "ratio",
    "pfs.batch.fallbacks": "count",
    "pfs.server.busy_max_s": "s",
    "pfs.server.imbalance": "ratio",
    "pfs.server.disk_wait_p99_ms": "ms",
    "pfs.server.queue_depth_max": "count",
    "pfs.mds.lookups": "count",
    "pfs.mds.hops": "count",
    "pfs.mds_cache.hit_ratio": "ratio",
    "pfs.mds_cache.stale_hits": "count",
    "pfs.integrity.checks": "count",
    "pfs.integrity.repaired": "count",
    "pfs.integrity.silent": "count",
    "simulate.events": "count",
    "simulate.events_per_subreq": "ratio",
    "simulate.host_us_per_event": "us",
    "simulate.t_x_s": "s",
    "simulate.t_s_s": "s",
    "simulate.t_t_s": "s",
    "faults.retries": "count",
    "faults.failovers": "count",
    "faults.rerouted_subreqs": "count",
    "faults.exhausted": "count",
    "online.rebuild_bytes": "B",
    "online.rebuild_chunks": "count",
    "online.quorum_window_failures": "count",
    "online.exposure_byte_s": "B.s",
    "online.data_lost_bytes": "B",
    "serving.rejected": "count",
    "serving.failed": "count",
    "serving.hedge_launched": "count",
    "serving.hedge_win_ratio": "ratio",
    "serving.throttle_wait_s": "s",
    **{
        f"serving.{tier}.p99_ms.{rate}": "ms"
        for tier in ("gold", "silver", "bronze")
        for rate in QOS_RATE_TAGS
    },
    **{f"host.{module}.self_s": "s" for module in (
        "core", "devices", "experiments", "faults", "middleware", "network", "obs",
        "online", "pfs", "serving", "simulate", "util", "workloads", "other")},
    "obs.trace_overhead": "ratio",
    "sim_harl_gain": "ratio",
    "sim_harl_gain.write": "ratio",
    "sim_harl_gain.read": "ratio",
    "sim_slo_rate": "1/s",
    "sim_mttr_s": "s",
    "fail_ratio": "ratio",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0,
                        help="host seconds of set-ups and timed passes (at least %d of each)"
                        % MIN_CYCLES)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink request counts and simulated time (tests)")
    parser.add_argument("--out", type=Path, default=HERE / "out",
                        help="directory for the traced run's span file")
    return parser.parse_args(argv)


def import_program():
    """Put the checkout's ``src/`` first on the path; False when it is missing."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return False
    for name in ENV_SWITCHES:
        os.environ.pop(name, None)
    sys.path.insert(0, str(src))
    return True


def digest(value) -> str:
    """Stable fingerprint of a pass's simulated results."""
    return hashlib.blake2b(pickle.dumps(value, protocol=4), digest_size=16).hexdigest()


# -- counters read off the built clusters -------------------------------------


def cluster_counters(built) -> dict:
    """Layer counters and invariant counts summed over a pass's clusters."""
    busy: dict[str, float] = defaultdict(float)
    c: Counter = Counter()
    fallbacks: Counter = Counter()
    for pfs in built:
        for name, seconds in pfs.server_busy_times().items():
            busy[name] += seconds
        c["subreqs"] += sum(server.subrequests_served for server in pfs.servers)
        stats = pfs.batch_stats
        c["columnar"] += stats["fast_columnar_batches"]
        c["event_heap"] += stats["fast_batches"] - stats["fast_columnar_batches"]
        c["general"] += stats["general_batches"]
        fallbacks.update(pfs.batch_fallbacks)
        if hasattr(pfs.mds, "stats"):
            # The namespace clients would ask for after the run, as the
            # harness builds it for its lost-entries check.
            expected = {name: h.layout_generation for name, h in pfs._files.items()}
            mds = pfs.mds.stats(expected=expected)
            c["mds_lookups"] += mds.lookups
            c["mds_hops"] += mds.hops_total
            c["lost_entries"] += mds.lost_entries
        if pfs.mds_cache is not None:
            cache = pfs.mds_cache.stats()
            c["cache_hits"] += cache.hits
            c["cache_lookups"] += cache.lookups
            c["stale_hits"] += cache.stale_hits
        if pfs.integrity is not None:
            integrity = pfs.integrity.stats()
            c["integrity_checks"] += integrity.checks
            c["integrity_repaired"] += integrity.repaired
            c["silent"] += integrity.silent_corruptions
        health = pfs.health.counters()
        for key in ("retries", "failovers", "rerouted_subrequests", "exhausted"):
            c[key] += health[key]
        c["window_failures"] += pfs.quorum_stats["window_failures"]
        if pfs.rebuild is not None:
            durability = pfs.rebuild.stats()
            c["rebuild_bytes"] += durability.bytes_rebuilt
            c["rebuild_chunks"] += durability.chunks
            c["exposure_byte_s"] += durability.exposure_byte_seconds
            c["data_lost_bytes"] += durability.data_lost_bytes
            c["mttr_s"] = max(c["mttr_s"], durability.mttr_max)
    c["busy_max_s"] = max(busy.values(), default=0.0)
    mean = sum(busy.values()) / len(busy) if busy else 0.0
    c["imbalance"] = c["busy_max_s"] / mean if mean else 0.0
    c["fallbacks"] = dict(fallbacks)
    return dict(c)


def invariant_gates(counters: dict) -> list:
    """The accounting identities every run must keep."""
    return [
        (f"{label} == 0", counters.get(key, 0) == 0, str(counters.get(key, 0)))
        for key, label in (
            ("silent", "silent corruptions"),
            ("stale_hits", "stale metadata-cache hits"),
            ("lost_entries", "lost MDS entries"),
            ("data_lost_bytes", "data-loss bytes"),
        )
    ]


# -- measuring ----------------------------------------------------------------


def plan(workload, seconds: float) -> tuple[int, int]:
    """(cycles, set-ups per sample) of a run of ``seconds``.

    A cycle is one timed set-up sample followed by one timed pass. The
    counts follow from the workload's nominal times, not from how fast the
    program runs: a faster program gets as many samples as a slower one, so
    the fastest-of-N timings and the peak memory compare like for like.
    """
    repeat = max(1, round(SETUP_BODY_S / workload.setup_s))
    cycles = max(MIN_CYCLES, round(seconds / (repeat * workload.setup_s + workload.pass_s)))
    return cycles, repeat


class Sample:
    """Host seconds of one timed body, whole and per top-level call."""

    def __init__(self, wall: float, probe):
        self.wall = wall
        self.stages = list(probe.stages)


class Pass(Sample):
    """One timed pass, reduced to what the metrics and gates read.

    The outcome itself is dropped once it is summarised, so memory does not
    grow with the number of passes.
    """

    def __init__(self, wall: float, probe, workload, expected, outcome):
        super().__init__(wall, probe)
        self.counters = cluster_counters(probe.built)
        self.probe_seconds = dict(probe.seconds)
        self.probe_counts = dict(probe.counts)
        self.digest = digest(outcome.sim)
        self.requests = outcome.requests
        self.failed_ops = outcome.failed_ops
        self.bytes_moved = outcome.bytes_moved
        self.sim_seconds = outcome.sim_seconds
        self.tail = tail(outcome)
        checked = workload.check(expected, outcome) if workload.check is not None else []
        self.gates = outcome.gates + checked + invariant_gates(self.counters)


def fastest(samples: list[Sample]) -> float:
    """Host seconds of the body, taking the fastest sample for each stage.

    A body is a fixed sequence of top-level calls (the probe's stages) plus
    the glue between them. Host speed here swings by tens of percent within
    a second, so each stage's time is the fastest of all samples, and so is
    the glue's; the sum is the body's time on an undisturbed host.
    """
    names = [name for name, _ in samples[0].stages]
    assert all([name for name, _ in s.stages] == names for s in samples), \
        "a workload made a different sequence of top-level calls"
    stages = sum(min(s.stages[i][1] for s in samples) for i in range(len(names)))
    glue = min(s.wall - sum(seconds for _, seconds in s.stages) for s in samples)
    return stages + glue


class Cpus:
    """Moves the process to the next allowed CPU before each timed sample.

    On a shared host one CPU can stay slower than the other for a whole run
    (measured on a 2-CPU VM: the fastest of 100 cold set-ups in one process
    read 1.6x slower in 2 of 6 fresh processes, and in none of 6 that
    alternated). Alternating puts half of the samples on each CPU, so the
    fastest sample does not depend on where the scheduler placed the process.
    """

    def __init__(self):
        self.allowed = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
        self.turn = 0

    def next(self) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {self.allowed[self.turn % len(self.allowed)]})
            self.turn += 1

    def restore(self) -> None:
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, set(self.allowed))


CPUS = Cpus()


def timed_pass(workload, inputs, expected, probe):
    """One timed pass; (its summary, its outcome)."""
    probe.reset()
    CPUS.next()
    gc.collect()
    t0 = time.perf_counter()
    outcome = workload.run(inputs, probe)
    wall = time.perf_counter() - t0
    return Pass(wall, probe, workload, expected, outcome), outcome


def timed_passes(workload, inputs, expected, probe, count: int, keep: bool = False):
    """``count`` timed passes; (passes, the first pass's outcome if ``keep``)."""
    passes = []
    kept = None
    for _ in range(count):
        summary, outcome = timed_pass(workload, inputs, expected, probe)
        passes.append(summary)
        if keep and kept is None:
            kept = outcome
        outcome = None
    return passes, kept


def cycles(workload, seed: int, scale: float, count: int, repeat: int):
    """``count`` cycles of a cold set-up sample and a pass; (set-ups, passes, inputs).

    Set-ups and passes alternate, so both draw their fastest samples from
    the whole run: the host here slows down for tens of seconds at a time,
    and a run split into a set-up phase and a pass phase would leave either
    one inside such a stretch. A sample times ``repeat`` set-ups back to
    back; each pass runs on the inputs of the set-up just before it.
    """
    from probe import Probe

    setups, passes = [], []
    expected = None
    with Probe(traced=False) as probe:
        for _ in range(count):
            inputs = None
            probe.reset()
            CPUS.next()
            gc.collect()
            t0 = time.perf_counter()
            for _ in range(repeat):
                inputs = workload.setup(seed, scale)
            setups.append(Sample(time.perf_counter() - t0, probe))
            if expected is None and workload.expect is not None:
                expected = workload.expect(inputs)
            summary, _ = timed_pass(workload, inputs, expected, probe)
            passes.append(summary)
    return setups, passes, inputs


def tail(outcome) -> tuple[float, float, int]:
    """(p50, p99, samples) of a pass's simulated latencies, seconds."""
    import numpy as np

    if outcome.tail is not None:
        return outcome.tail
    latencies = outcome.latencies
    if latencies.size == 0:
        return 0.0, 0.0, 0
    p50, p99 = np.quantile(latencies, [0.5, 0.99])
    return float(p50), float(p99), int(latencies.size)


def des_trace_metrics(runs) -> dict:
    """Events, disk waits, queue depths and T_X/T_S/T_T from traced DES runs."""
    from repro.obs.metrics import MetricsRegistry, histogram_quantile
    from repro.obs.tracer import PHASE_NETWORK, PHASE_STARTUP, PHASE_TRANSFER

    snapshots = [run.obs for run in runs if run.obs is not None]
    if not snapshots:
        return {}
    merged = MetricsRegistry.merge([s.metrics for s in snapshots])
    waits = [entry for name, entry in merged.items()
             if name.startswith("resource.") and name.endswith(".disk.wait_s")]
    wait = MetricsRegistry.merge([{"w": entry} for entry in waits])["w"] if waits else None
    depth = max((entry["value"] for name, entry in merged.items()
                 if name.endswith(".disk.max_queue_depth")), default=0)
    phases = Counter()
    for snapshot in snapshots:
        for span in snapshot.spans:
            phases[span.phase] += span.duration
    return {
        "simulate.events": merged["sim.events_dispatched"]["value"],
        "pfs.server.disk_wait_p99_ms": histogram_quantile(wait, 0.99) * 1e3 if wait else 0.0,
        "pfs.server.queue_depth_max": depth,
        "simulate.t_x_s": phases[PHASE_NETWORK],
        "simulate.t_s_s": phases[PHASE_STARTUP],
        "simulate.t_t_s": phases[PHASE_TRANSFER],
    }


def end_to_end(setups, repeat: int, passes) -> tuple[dict, list[str]]:
    """End-to-end metric values plus one note per metric on how it was taken."""
    wall = fastest(passes)
    first = passes[0]
    subreqs = first.counters["subreqs"]
    p50, p99, samples = first.tail
    values = {
        "setup_s": fastest(setups) / repeat,
        "wall_s": wall,
        "subreq_per_s": subreqs / wall,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "sim_mib_s": first.bytes_moved / first.sim_seconds / (1 << 20),
        "sim_p99_ms": p99 * 1e3,
    }
    walls = sorted(p.wall for p in passes)
    setup_walls = sorted(s.wall / repeat for s in setups)
    notes = {
        "setup_s": f"fastest of {len(setups)} samples of {repeat} cold set-up(s), per stage "
                   f"(whole samples: fastest {setup_walls[0]:.6f}, median "
                   f"{statistics.median(setup_walls):.6f}, slowest {setup_walls[-1]:.6f})",
        "wall_s": f"fastest of {len(passes)} passes per stage "
                  f"(whole passes: fastest {walls[0]:.4f}, median "
                  f"{statistics.median(walls):.4f}, slowest {walls[-1]:.4f})",
        "subreq_per_s": f"{subreqs} sub-requests per pass",
        "peak_rss_mib": "ru_maxrss of this process",
        "sim_mib_s": f"{first.bytes_moved} B over {first.sim_seconds:.6f} simulated s",
        "sim_p99_ms": f"p99 of {samples} samples ({samples // 100} beyond), "
                      f"p50 {p50 * 1e3:.4f} ms",
    }
    return values, [notes[name] for name in END_TO_END]


def per_layer(setup_probe, passes_plain, passes_traced, outcome, profile, overhead) -> dict:
    """Every per-layer metric of the traced run; ``outcome`` is a traced pass's."""
    traced = min(passes_traced, key=lambda p: p.wall)
    c = traced.counters
    seconds = traced.probe_seconds
    counts = traced.probe_counts
    setup_seconds = setup_probe.seconds
    setup_counts = setup_probe.counts
    sim = outcome.sim
    values = dict.fromkeys(PER_LAYER, 0.0)
    values.update({
        "workloads.gen_s": setup_seconds.get("workloads.gen", 0.0),
        "experiments.calibrate_s": setup_seconds.get("experiments.calibrate", 0.0),
        "core.plan_s": setup_seconds.get("core.plan", 0.0),
        "core.regions": setup_counts.get("core.regions", 0),
        "core.stripe_cache_hits": setup_counts.get("core.stripe_cache_hits", 0),
        "core.stripe_cache_misses": setup_counts.get("core.stripe_cache_misses", 0),
        "pfs.build_s": seconds.get("pfs.build", 0.0),
        "pfs.mapping.decompose_s": seconds.get("pfs.mapping.decompose", 0.0),
        "pfs.mapping.subreqs": counts.get("pfs.mapping.subreqs", 0),
        "pfs.batch.write_pass_s": seconds.get("pfs.batch.write_pass", 0.0),
        "pfs.batch.read_pass_s": seconds.get("pfs.batch.read_pass", 0.0),
        "pfs.batch.replay_s": seconds.get("pfs.batch.replay", 0.0),
        "pfs.batch.columnar_batches": c["columnar"],
        "pfs.batch.event_heap_batches": c["event_heap"],
        "pfs.batch.general_batches": c["general"],
        "pfs.batch.fallbacks": sum(c["fallbacks"].values()),
        "pfs.server.busy_max_s": c["busy_max_s"],
        "pfs.server.imbalance": c["imbalance"],
        "pfs.mds.lookups": c.get("mds_lookups", 0),
        "pfs.mds.hops": c.get("mds_hops", 0),
        "pfs.mds_cache.hit_ratio": (c["cache_hits"] / c["cache_lookups"]
                                    if c.get("cache_lookups") else 0.0),
        "pfs.mds_cache.stale_hits": c.get("stale_hits", 0),
        "pfs.integrity.checks": c.get("integrity_checks", 0),
        "pfs.integrity.repaired": c.get("integrity_repaired", 0),
        "pfs.integrity.silent": c.get("silent", 0),
        "faults.retries": c["retries"],
        "faults.failovers": c["failovers"],
        "faults.rerouted_subreqs": c["rerouted_subrequests"],
        "faults.exhausted": c["exhausted"],
        "online.rebuild_bytes": c.get("rebuild_bytes", 0),
        "online.rebuild_chunks": c.get("rebuild_chunks", 0),
        "online.quorum_window_failures": c["window_failures"],
        "online.exposure_byte_s": c.get("exposure_byte_s", 0.0),
        "online.data_lost_bytes": c.get("data_lost_bytes", 0),
        "sim_mttr_s": c.get("mttr_s", 0.0),
        "obs.trace_overhead": overhead,
    })
    batches = c["columnar"] + c["event_heap"] + c["general"]
    values["pfs.batch.columnar_share"] = c["columnar"] / batches if batches else 0.0
    values.update(des_trace_metrics(outcome.runs))
    if values["simulate.events"]:
        values["simulate.events_per_subreq"] = values["simulate.events"] / c["subreqs"]
        values["simulate.host_us_per_event"] = fastest(passes_plain) / values["simulate.events"] * 1e6
    values.update({f"host.{module}.self_s": s for module, s in profile.items()})
    if "gain" in sim:
        values["sim_harl_gain"] = sim["gain"]
        values["sim_harl_gain.write"] = sim["gain.write"]
        values["sim_harl_gain.read"] = sim["gain.read"]
    if "slo_rate" in sim:
        values["sim_slo_rate"] = sim["slo_rate"]
        serving = [run.serving for run in outcome.runs if run.serving is not None]
        hedges = Counter()
        for result, tag in zip(serving, QOS_RATE_TAGS):
            hedges.update(result.hedge)
            for tenant in result.tenants:
                values[f"serving.{tenant.tier}.p99_ms.{tag}"] = tenant.p99 * 1e3
                values["serving.rejected"] += tenant.rejected
                values["serving.failed"] += tenant.failed
                values["serving.throttle_wait_s"] += tenant.throttle_wait_s
        launched = hedges.get("serving.hedge.launched", 0)
        values["serving.hedge_launched"] = launched
        values["serving.hedge_win_ratio"] = (
            hedges.get("serving.hedge.won", 0) / launched if launched else 0.0)
    return values


def measure(workload, seed: int, seconds: float, scale: float, traced: bool, out: Path):
    """Run one workload; returns (metrics, notes, attempted, failed, gates)."""
    from probe import Probe, profile_self_seconds, write_trace

    count, repeat = plan(workload, seconds)
    if not traced:
        setups, all_passes, inputs = cycles(workload, seed, scale, count, repeat)
        metrics, notes = end_to_end(setups, repeat, all_passes)
    else:
        with Probe(traced=True) as setup_probe:
            inputs = workload.setup(seed, scale)
        expected = workload.expect(inputs) if workload.expect is not None else None
        half = max(2, count // 2)
        with Probe(traced=False) as probe:
            plain, _ = timed_passes(workload, inputs, expected, probe, half)
        with Probe(traced=True) as traced_probe:
            traced_passes, outcome = timed_passes(
                workload, inputs, expected, traced_probe, half, keep=True)
        with Probe(traced=False) as probe:
            box = []
            profile = profile_self_seconds(lambda: box.append(workload.run(inputs, probe)))
            profiled = Pass(0.0, probe, workload, expected, box.pop())
        overhead = fastest(traced_passes) / fastest(plain) - 1.0
        all_passes = plain + traced_passes + [profiled]
        metrics = per_layer(setup_probe, plain, traced_passes, outcome, profile, overhead)
        notes = None
    gates = [("simulated outputs identical across passes",
              len({p.digest for p in all_passes}) == 1, f"{len(all_passes)} passes")]
    for p in all_passes:
        gates.extend(p.gates)
    if workload.extra_gates is not None:
        gates.extend(workload.extra_gates(inputs))
    failed_gates = sum(1 for _, ok, _ in gates if not ok)
    attempted = sum(p.requests for p in all_passes) + len(gates)
    failed = sum(p.failed_ops for p in all_passes) + failed_gates
    if traced:
        metrics["fail_ratio"] = failed / attempted
        path = out / f"{workload.name}-seed{seed}.trace.json"
        write_trace(path, traced_probe, metrics, {
            "workload": workload.name, "seed": seed, "scale": scale,
            "setup_spans": [list(s) for s in setup_probe.spans],
            "fallback_reasons": traced_passes[0].counters["fallbacks"],
            "trace_overhead": metrics["obs.trace_overhead"],
        })
        notes = [f"spans written to {path}"]
    return metrics, notes, attempted, failed, gates


def report(workload, seed, traced, metrics, notes, gates, attempted, failed) -> None:
    """Human-readable report: every metric by name and unit, then the gates."""
    units = PER_LAYER if traced else END_TO_END
    print(f"workload {workload.name} (seed {seed}, {'traced' if traced else 'untraced'})")
    print(f"  why:  {workload.why}")
    print(f"  loop: {workload.loop}")
    width = max(len(name) for name in units)
    for index, name in enumerate(units):
        note = "" if traced else f"  {notes[index]}"
        print(f"  {name:<{width}} {metrics[name]:>16.6g} {units[name]:<6}{note}")
    if traced:
        print(f"  {notes[0]}")
    bad = [(name, detail) for name, ok, detail in gates if not ok]
    print(f"  gates: {len(gates) - len(bad)}/{len(gates)} passed; "
          f"{failed} of {attempted} operations and gates failed")
    for name, detail in bad:
        print(f"  GATE FAILED: {name} ({detail})")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not import_program():
        print(f"error: no program source at {ROOT / 'src' / 'repro'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    from suite import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    traced = bool(args.trace)
    try:
        metrics, notes, attempted, failed, gates = measure(
            workload, args.seed, args.seconds, args.scale, traced, args.out)
    finally:
        CPUS.restore()
    report(workload, args.seed, traced, metrics, notes, gates, attempted, failed)
    units = PER_LAYER if traced else END_TO_END
    correct = all(ok for _, ok, _ in gates)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
