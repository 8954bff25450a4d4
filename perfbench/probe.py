"""Spans and call timers that the benchmark wraps around the program's public calls.

Nothing here changes the program: :class:`Probe` replaces a handful of public
functions and methods with thin wrappers for the duration of a ``with``
block and restores the originals on exit. Untraced runs install only the
wrappers called a few times per set-up or pass: the :meth:`Testbed.build`
recorder, which hands the built clusters to the correctness gates, and
timers around the calls that make up a set-up or a pass. Traced runs add
wrappers around inner calls and a span around every wrapped call.

A wrapped call that runs inside no other wrapped call is a *stage*; every
probe logs its stages' host seconds, so the benchmark can take the fastest
sample per stage.

A span is ``(id, parent, name, start, end)`` in host seconds. Spans stay in
memory; :func:`write_trace` writes them out once the benchmark ends.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

#: Modules of ``src/repro`` whose self time the profiled pass reports;
#: everything else (numpy, the interpreter, the benchmark) is ``other``.
MODULES = (
    "core",
    "devices",
    "experiments",
    "faults",
    "middleware",
    "network",
    "obs",
    "online",
    "pfs",
    "serving",
    "simulate",
    "util",
    "workloads",
)


class Probe:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self._stack: list[int] = []
        self._depth = 0
        #: Per-name host seconds since the last :meth:`reset`.
        self.seconds: dict[str, float] = defaultdict(float)
        #: Counters read off the wrapped calls' return values.
        self.counts: dict[str, int] = defaultdict(int)
        #: Clusters built since the last :meth:`reset` (for the gates).
        self.built: list = []
        #: (name, host seconds) of every stage since the last reset.
        self.stages: list[tuple[str, float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Start a new pass: clear per-pass totals, keep the span log."""
        self.seconds.clear()
        self.counts.clear()
        self.built = []
        self.stages = []

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        self._depth += 1
        if self.traced:
            span_id = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append((span_id, parent, name, start, 0.0))
            self._stack.append(span_id)
        try:
            yield
        finally:
            end = time.perf_counter()
            self._depth -= 1
            if self._depth == 0:
                self.stages.append((name, end - start))
            if self.traced:
                self._stack.pop()
                self.spans[span_id] = (span_id, parent, name, start, end)
                self.seconds[name] += end - start

    # -- installing wrappers ---------------------------------------------

    def _patch(self, owner, attribute: str, make) -> None:
        original = getattr(owner, attribute)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def _timed(self, owner, attribute: str, name: str, after=None) -> None:
        probe = self

        def make(original):
            def wrapper(*args, **kwargs):
                with probe.span(name):
                    result = original(*args, **kwargs)
                if after is not None:
                    after(probe, args, result)
                return result

            wrapper.__wrapped__ = original
            return wrapper

        self._patch(owner, attribute, make)

    def __enter__(self) -> "Probe":
        from repro.experiments import harness
        from repro.pfs import batch_exec, mapping
        from repro.pfs.filesystem import PFSFile
        from repro.workloads.synthetic import SyntheticRegionWorkload
        from repro.workloads.temporal import TemporalPhaseWorkload

        def record_build(probe, args, pfs):
            probe.built.append(pfs)

        self._timed(harness.Testbed, "build", "pfs.build", after=record_build)
        self._patch(PFSFile, "request_batch", self._request_batch_wrapper)
        self._timed(harness, "run_workload", "experiments.run_workload")
        self._timed(harness, "run_serving", "experiments.run_serving")
        self._timed(harness, "harl_plan", "experiments.harl_plan")
        self._timed(SyntheticRegionWorkload, "request_batch", "workloads.gen")
        self._timed(TemporalPhaseWorkload, "phase_requests", "workloads.gen")
        if not self.traced:
            return self
        from repro.core.planner import HARLPlanner

        def record_plan(probe, args, rst):
            report = args[0].last_report
            if report is not None:
                probe.counts["core.regions"] += report.n_regions_after_merge
                probe.counts["core.stripe_cache_hits"] += report.cache_hits
                probe.counts["core.stripe_cache_misses"] += report.cache_misses

        def record_decompose(probe, args, result):
            probe.counts["pfs.mapping.subreqs"] += int(result[0].shape[0])

        self._timed(harness.Testbed, "parameters", "experiments.calibrate")
        self._timed(HARLPlanner, "plan", "core.plan", after=record_plan)
        self._timed(mapping, "decompose_batch_flat", "pfs.mapping.decompose", after=record_decompose)
        self._timed(batch_exec, "replay_batch", "pfs.batch.replay")
        return self

    def _request_batch_wrapper(self, original):
        probe = self

        def request_batch(handle, batch, *args, **kwargs):
            # The fast tiers replay the whole batch inside this call, so its
            # span is the write or read pass.
            name = "pfs.batch.read_pass" if bool(batch.is_read.all()) else "pfs.batch.write_pass"
            with probe.span(name):
                return original(handle, batch, *args, **kwargs)

        request_batch.__wrapped__ = original
        return request_batch

    def __exit__(self, *exc) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


def profile_self_seconds(body) -> dict[str, float]:
    """Run ``body()`` under cProfile; host self seconds per ``repro`` module."""
    profiler = cProfile.Profile()
    profiler.runcall(body)
    totals = dict.fromkeys(MODULES + ("other",), 0.0)
    for (filename, _, _), row in pstats.Stats(profiler).stats.items():
        module = "other"
        parts = Path(filename).parts
        if "repro" in parts:
            index = len(parts) - 1 - parts[::-1].index("repro")
            if index + 1 < len(parts) and parts[index + 1] in MODULES:
                module = parts[index + 1]
        totals[module] += row[2]  # tottime: time in the function itself
    return totals


def self_seconds(spans) -> dict[str, float]:
    """Per-name span self time: duration minus the time its children cover."""
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent is not None:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


def write_trace(path: Path, probe: Probe, layers: dict, extra: dict) -> None:
    """Write the span log, the per-layer table and run facts as one JSON file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    origin = probe.spans[0][3] if probe.spans else 0.0
    payload = {
        **extra,
        "layers": layers,
        "span_self_s": self_seconds(probe.spans),
        "spans": [
            {"id": i, "parent": p, "name": n, "start": s - origin, "end": e - origin}
            for i, p, n, s, e in probe.spans
        ],
    }
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
