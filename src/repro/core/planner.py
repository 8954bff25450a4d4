"""The HARL planner: the full trace → RST pipeline (Fig. 3).

Ties the three phases together:

1. **Tracing** happens elsewhere (the middleware's IOSIG collector or a
   workload generator's synthetic trace); the planner takes the records.
2. **Analysis** — :meth:`HARLPlanner.plan`: sort by offset, divide into
   CV-homogeneous regions (Algorithm 1 with the region-count guard), grid
   search the optimal stripe pair per region (Algorithm 2), assemble the
   RST, and merge adjacent regions with identical stripes.
3. **Placing** — :meth:`HARLPlanner.plan_layout` wraps the RST in a
   :class:`repro.pfs.layout.RegionLevelLayout` ready to hand to
   ``HybridPFS.create_file`` (or to the MPI-IO middleware, which also
   materializes the R2F mapping).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.core.params import CostModelParameters
from repro.core.region_division import Region, divide_regions_bounded
from repro.core.rst import RegionStripeTable, RSTEntry
from repro.core.space import SpaceConstraint
from repro.core.stripe_determination import (
    StripeChoice,
    determine_stripes,
    stripe_cache_info,
)
from repro.pfs.layout import RegionLevelLayout
from repro.pfs.mapping import StripingConfig
from repro.util.units import KiB, MiB
from repro.workloads.traces import TraceColumns, TraceRecord, sort_trace, trace_arrays


@dataclass
class PlanReport:
    """Planner diagnostics for experiment logs and EXPERIMENTS.md."""

    n_requests: int = 0
    threshold_used: float = 1.0
    regions: list[Region] = field(default_factory=list)
    choices: list[StripeChoice] = field(default_factory=list)
    n_regions_after_merge: int = 0
    #: Algorithm 2 memoization traffic attributable to this plan() call:
    #: hits are regions whose grid search was skipped because an identical
    #: (rebased) request pattern was already solved.
    cache_hits: int = 0
    cache_misses: int = 0
    #: Effective stripe-cache LRU capacity at plan time (``REPRO_STRIPE_CACHE``
    #: when set, else the built-in default; 0 means memoization was disabled).
    cache_capacity: int = 0

    def summary(self) -> str:
        parts = [
            f"{self.n_requests} requests -> {len(self.regions)} regions "
            f"(threshold {self.threshold_used:.2f}), "
            f"{self.n_regions_after_merge} after merge, "
            f"stripe-cache {self.cache_hits} hits / {self.cache_misses} misses "
            f"(capacity {self.cache_capacity})"
        ]
        for region, choice in zip(self.regions, self.choices):
            parts.append(
                f"  region {region.region_id} @ {region.offset}: "
                f"{region.n_requests} reqs, avg {region.avg_request_size:.0f}B "
                f"-> {choice.describe()} (cost {choice.cost:.4f}s)"
            )
        return "\n".join(parts)


class HARLPlanner:
    """Computes region-level layouts from I/O traces.

    Args:
        params: calibrated cost model parameters.
        step: Algorithm 2 grid step (paper default 4 KB; None = adaptive
            R̄/32 per region, see
            :func:`repro.core.stripe_determination.determine_stripes`).
        region_chunk: fixed-size division granularity used to bound the
            region count (Sec. III-C; the paper suggests 64-128 MB against
            16 GB files, i.e. a few hundred regions). ``None`` scales the
            same ratio to the traced file: extent/256, at least 1 MiB.
        threshold: Algorithm 1's initial CV-change threshold (100% = 1.0).
        min_requests_per_region: see
            :func:`repro.core.region_division.divide_regions`.
        max_requests_per_region: Algorithm 2's down-sampling cap.
    """

    def __init__(
        self,
        params: CostModelParameters,
        step: int | None = 4 * KiB,
        region_chunk: int | None = None,
        threshold: float = 1.0,
        min_requests_per_region: int = 2,
        max_requests_per_region: int = 512,
        merge_regions: bool = True,
        space_budgets: tuple[int, int] | None = None,
    ):
        self.params = params
        self.step = None if step is None else int(step)
        self.region_chunk = None if region_chunk is None else int(region_chunk)
        self.threshold = float(threshold)
        self.min_requests_per_region = int(min_requests_per_region)
        self.max_requests_per_region = int(max_requests_per_region)
        self.merge_regions = bool(merge_regions)
        # Per-server capacity budgets (HServer bytes, SServer bytes); regions
        # are placed in offset order, each consuming its footprint
        # (Discussion, Sec. IV-D: bound SServer space consumption).
        self.space_budgets = space_budgets
        self.last_report: PlanReport | None = None

    def plan(
        self,
        trace: Sequence[TraceRecord] | TraceColumns,
        availability: Sequence[bool] | None = None,
    ) -> RegionStripeTable:
        """Analysis phase: trace records → merged RST.

        ``trace`` may also be the columns of an offset-sorted trace,
        ``trace_arrays(sort_trace(records))``, for a caller that needs them
        itself first.

        ``availability`` is an optional per-server alive mask (HServers
        first, then SServers, matching the cost-model server order) for
        degraded-mode re-planning after permanent failures: Algorithm 2
        then optimizes over the *surviving* counts only. The resulting RST
        addresses config server ids ``0..alive-1``; pair it with
        ``PFSFile.relayout(layout, server_map=health.surviving_server_ids())``
        to map those onto the physical survivors.
        """
        if not isinstance(trace, TraceColumns):
            trace = trace_arrays(sort_trace(trace))
        if trace.offsets.shape[0] == 0:
            raise ValueError("cannot plan a layout from an empty trace")
        return self.plan_from_arrays(*trace, availability=availability)

    def _effective_params(self, availability: Sequence[bool] | None) -> CostModelParameters:
        """Cost-model params reduced to the surviving servers, if any died."""
        if availability is None:
            return self.params
        mask = [bool(b) for b in availability]
        expected = self.params.n_hservers + self.params.n_sservers
        if len(mask) != expected:
            raise ValueError(
                f"availability mask has {len(mask)} entries, expected {expected} "
                f"({self.params.n_hservers}H + {self.params.n_sservers}S)"
            )
        alive_h = sum(mask[: self.params.n_hservers])
        alive_s = sum(mask[self.params.n_hservers :])
        if alive_h + alive_s == 0:
            raise ValueError("availability mask leaves no surviving servers to plan over")
        if alive_h == self.params.n_hservers and alive_s == self.params.n_sservers:
            return self.params
        return self.params.with_servers(alive_h, alive_s)

    def plan_from_arrays(
        self,
        offsets: np.ndarray,
        sizes: np.ndarray,
        is_read: np.ndarray,
        availability: Sequence[bool] | None = None,
    ) -> RegionStripeTable:
        """Analysis phase on pre-columnized, offset-sorted requests."""
        params = self._effective_params(availability)
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        is_read = np.asarray(is_read, dtype=bool)
        report = PlanReport(n_requests=int(offsets.shape[0]))

        region_chunk = self.region_chunk
        if region_chunk is None:
            file_extent = int((offsets + sizes).max())
            region_chunk = max(MiB, file_extent // 256)
        regions, threshold_used = divide_regions_bounded(
            offsets,
            sizes,
            region_chunk=region_chunk,
            initial_threshold=self.threshold,
            min_requests=self.min_requests_per_region,
        )
        report.threshold_used = threshold_used
        report.regions = regions

        file_extent = int((offsets + sizes).max())
        remaining_budgets = list(self.space_budgets) if self.space_budgets else None
        cache_before = stripe_cache_info()

        entries: list[RSTEntry] = []
        for region in regions:
            lo, hi = region.first_request, region.last_request
            constraint = None
            region_extent = (region.end if region.end is not None else file_extent) - region.offset
            if remaining_budgets is not None:
                constraint = SpaceConstraint(
                    class_counts=(params.n_hservers, params.n_sservers),
                    per_server_budgets=tuple(remaining_budgets),
                    region_extent=max(0, region_extent),
                )
            choice = determine_stripes(
                params,
                offsets[lo:hi],
                sizes[lo:hi],
                is_read[lo:hi],
                avg_request_size=region.avg_request_size,
                step=self.step,
                max_requests=self.max_requests_per_region,
                constraint=constraint,
            )
            if constraint is not None:
                footprints = constraint.footprint_per_server(
                    (choice.hstripe, choice.sstripe)
                )
                remaining_budgets = [
                    max(0, int(budget - footprint))
                    for budget, footprint in zip(remaining_budgets, footprints)
                ]
            report.choices.append(choice)
            entries.append(
                RSTEntry(
                    region_id=region.region_id,
                    offset=region.offset,
                    end=region.end,
                    config=StripingConfig(
                        n_hservers=params.n_hservers,
                        n_sservers=params.n_sservers,
                        hstripe=choice.hstripe,
                        sstripe=choice.sstripe,
                    ),
                )
            )
        rst = RegionStripeTable(entries)
        if self.merge_regions:
            rst = rst.merged()
        report.n_regions_after_merge = len(rst)
        cache_after = stripe_cache_info()
        report.cache_hits = cache_after["hits"] - cache_before["hits"]
        report.cache_misses = cache_after["misses"] - cache_before["misses"]
        report.cache_capacity = cache_after["maxsize"]
        self.last_report = report
        return rst

    def plan_layout(
        self,
        trace: Sequence[TraceRecord],
        availability: Sequence[bool] | None = None,
        replicas: int = 1,
        replicate_max_bytes: int | None = None,
    ) -> RegionLevelLayout:
        """Placing phase entry point: trace → region-level layout policy.

        ``replicas`` > 1 mirrors region data across the other server class
        (HDA-style per-allocation-unit redundancy; see DESIGN.md §11).
        ``replicate_max_bytes`` restricts the mirroring to regions spanning
        at most that many bytes — the small, hot regions where the extra
        copy is cheap — leaving bulk regions single-copy. The last,
        unbounded region never qualifies under a size cap.
        """
        rst = self.plan(trace, availability=availability)
        if replicas <= 1:
            return RegionLevelLayout(rst)
        if replicate_max_bytes is None:
            return RegionLevelLayout(rst, replicas=replicas)
        per_region = {
            entry.region_id: replicas
            for entry in rst.entries
            if entry.end is not None and entry.end - entry.offset <= replicate_max_bytes
        }
        return RegionLevelLayout(rst, replicas=per_region)
