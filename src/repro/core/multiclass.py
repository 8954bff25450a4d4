"""Multi-tier cost model and stripe determination (the paper's future work).

Generalizes Sec. III-D/III-E from two server classes to K ordered classes
(e.g. NVMe / SATA-SSD / HDD). The per-request cost keeps the paper's
structure, with every max taken over all classes::

    T_X = max_i s_i · t
    T_S = max_i  E[max of m_i startup draws from class i's (α_min, α_max)]
    T_T = max_i s_i · β_i

where s_i is the largest sub-request on a class-i server and m_i the number
of class-i servers touched.

Exhaustively grid-searching K stripe sizes is O((R̄/step)^K); instead
:func:`determine_stripes_multiclass` runs **coordinate descent**: start from
a bandwidth-proportional allocation, then repeatedly re-optimize one class's
stripe with all others held fixed (each 1-D scan evaluates every candidate
against every request at once, looping over each class's servers). Each
sweep can only lower the modeled cost, so the search terminates; for K = 2
the result is verified against the exhaustive Algorithm 2 in the test
suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cost_model import _summed_cost
from repro.devices.base import OpType
from repro.devices.profiles import DeviceProfile
from repro.pfs.mapping import round_split
from repro.pfs.tiered import ClassStripe, MultiClassStripingConfig
from repro.util.units import KiB, format_size
from repro.util.validation import check_positive


@dataclass(frozen=True)
class TierSpec:
    """One server class for the multi-tier cost model."""

    count: int
    profile: DeviceProfile

    def __post_init__(self):
        if self.count < 1:
            raise ValueError(f"tier count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class MultiTierParameters:
    """Table-I generalization: K tiers plus the unit network time."""

    tiers: tuple[TierSpec, ...]
    unit_network_time: float

    def __post_init__(self):
        if not self.tiers:
            raise ValueError("need at least one tier")
        check_positive("unit_network_time", self.unit_network_time)

    @property
    def n_classes(self) -> int:
        return len(self.tiers)

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(t.count for t in self.tiers)


def multiclass_request_cost(
    params: MultiTierParameters,
    op: OpType | str,
    offset: int,
    size: int,
    stripes: tuple[int, ...],
) -> float:
    """Scalar per-request cost under a K-class stripe vector."""
    op = OpType.parse(op)
    if size <= 0:
        return 0.0
    if len(stripes) != params.n_classes:
        raise ValueError(f"need {params.n_classes} stripes, got {len(stripes)}")
    config = MultiClassStripingConfig(
        [ClassStripe(tier.count, stripe) for tier, stripe in zip(params.tiers, stripes)]
    )
    per_class = config.critical_params_per_class(offset, size)
    t = params.unit_network_time
    network = max(largest for largest, _ in per_class) * t
    startup = max(
        tier.profile.expected_startup(op, touched)
        for tier, (_, touched) in zip(params.tiers, per_class)
    )
    transfer = max(
        largest * tier.profile.beta(op)
        for tier, (largest, _) in zip(params.tiers, per_class)
    )
    return network + startup + transfer


def multiclass_total_cost(
    params: MultiTierParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    stripe_matrix: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every candidate stripe vector.

    Args:
        stripe_matrix: int64 array of shape ``(n_cand, K)``; every row must
            distribute some data (``Σ count_i · stripe_i > 0``).

    Returns:
        float64 array ``(n_cand,)`` of total costs — the coordinate-descent
        inner loop. It shares its summing routine with the two-class
        :func:`~repro.core.cost_model.total_cost_vectorized`, so a K = 2
        call returns bit-equal costs.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    stripe_matrix = np.atleast_2d(np.asarray(stripe_matrix, dtype=np.int64))
    if stripe_matrix.shape[1] != params.n_classes:
        raise ValueError(
            f"stripe matrix has {stripe_matrix.shape[1]} columns, need {params.n_classes}"
        )
    if np.any(stripe_matrix < 0):
        raise ValueError("stripe sizes must be >= 0")
    round_sizes = stripe_matrix @ np.array(params.class_counts, dtype=np.int64)
    if np.any(round_sizes <= 0):
        raise ValueError("every candidate must distribute some data")
    return _summed_cost(
        [(tier.count, tier.profile) for tier in params.tiers],
        params.unit_network_time,
        round_split(offsets, sizes, round_sizes[:, None]),
        is_read,
        stripe_matrix,
    )


@dataclass(frozen=True)
class MultiTierChoice:
    """The winning stripe vector and its modeled cost."""

    stripes: tuple[int, ...]
    cost: float

    def describe(self) -> str:
        inner = ", ".join(format_size(s) for s in self.stripes)
        return f"{{{inner}}}"


def _initial_stripes(
    params: MultiTierParameters, avg_request_size: float, step: int, op: OpType
) -> np.ndarray:
    """Bandwidth-proportional warm start, rounded to the grid."""
    rates = np.array([1.0 / tier.profile.beta(op) for tier in params.tiers])
    counts = np.array(params.class_counts, dtype=np.float64)
    # Aim for one striping round per average request, split by capability.
    share = rates / (rates * counts).sum()
    stripes = np.round(avg_request_size * share / step) * step
    return np.maximum(stripes, 0).astype(np.int64)


def determine_stripes_multiclass(
    params: MultiTierParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    avg_request_size: float | None = None,
    step: int | None = None,
    max_requests: int = 256,
    max_sweeps: int = 8,
) -> MultiTierChoice:
    """Coordinate-descent stripe search over K classes.

    Per sweep, each class's stripe is re-optimized over the full
    ``0..R̄`` grid with the other classes fixed; sweeps repeat until the
    vector stops changing (or ``max_sweeps``). Monotone in modeled cost.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    if offsets.shape[0] == 0:
        raise ValueError("cannot determine stripes for an empty region")
    base = int(offsets.min())
    offsets = offsets - base

    if avg_request_size is None:
        avg_request_size = float(sizes.mean())
    if step is None:
        step = max(4 * KiB, int(avg_request_size / 32) // (4 * KiB) * (4 * KiB))
    if step <= 0:
        raise ValueError(f"step must be > 0, got {step}")
    max_stripe = max(step, int(-(-avg_request_size // step)) * step)

    if offsets.shape[0] > max_requests:
        idx = np.unique(np.linspace(0, offsets.shape[0] - 1, max_requests).round().astype(int))
        scale = offsets.shape[0] / idx.shape[0]
        offsets, sizes, is_read = offsets[idx], sizes[idx], is_read[idx]
    else:
        scale = 1.0

    dominant_op = OpType.READ if is_read.mean() >= 0.5 else OpType.WRITE
    current = _initial_stripes(params, avg_request_size, step, dominant_op)
    if (current * np.array(params.class_counts)).sum() == 0:
        current[int(np.argmax(current))] = step  # Degenerate warm start.
        if (current * np.array(params.class_counts)).sum() == 0:
            current[0] = step

    grid = np.arange(0, max_stripe + 1, step, dtype=np.int64)
    best_cost = float(
        multiclass_total_cost(params, offsets, sizes, is_read, current[None, :])[0]
    )
    for _ in range(max_sweeps):
        changed = False
        for class_index in range(params.n_classes):
            candidates = np.tile(current, (grid.shape[0], 1))
            candidates[:, class_index] = grid
            valid = (candidates * np.array(params.class_counts)).sum(axis=1) > 0
            candidates = candidates[valid]
            costs = multiclass_total_cost(params, offsets, sizes, is_read, candidates)
            winner = int(np.argmin(costs))
            if float(costs[winner]) < best_cost - 1e-15:
                best_cost = float(costs[winner])
                new_value = int(candidates[winner, class_index])
                if new_value != current[class_index]:
                    current = candidates[winner].copy()
                    changed = True
        if not changed:
            break
    return MultiTierChoice(stripes=tuple(int(s) for s in current), cost=best_cost * scale)


class MultiTierPlanner:
    """HARL's three-phase pipeline generalized to K server classes.

    Region division (Algorithm 1) is class-count agnostic and reused
    verbatim; the per-region stripe search is the coordinate descent above.
    Produces an RST whose entries carry
    :class:`~repro.pfs.tiered.MultiClassStripingConfig` — directly usable by
    :class:`~repro.pfs.layout.RegionLevelLayout` on a
    :class:`~repro.pfs.tiered.TieredPFS`.
    """

    def __init__(
        self,
        params: MultiTierParameters,
        step: int | None = None,
        region_chunk: int | None = None,
        threshold: float = 1.0,
        min_requests_per_region: int = 2,
        max_requests_per_region: int = 256,
        merge_regions: bool = True,
    ):
        self.params = params
        self.step = step
        self.region_chunk = region_chunk
        self.threshold = threshold
        self.min_requests_per_region = min_requests_per_region
        self.max_requests_per_region = max_requests_per_region
        self.merge_regions = merge_regions

    def plan(self, trace):
        """Trace records, or an offset-sorted trace's columns → merged
        multi-tier RST."""
        from repro.core.region_division import divide_regions_bounded
        from repro.core.rst import RegionStripeTable, RSTEntry
        from repro.util.units import MiB
        from repro.workloads.traces import TraceColumns, sort_trace, trace_arrays

        if not isinstance(trace, TraceColumns):
            trace = trace_arrays(sort_trace(trace))
        offsets, sizes, is_read = trace
        if offsets.shape[0] == 0:
            raise ValueError("cannot plan a layout from an empty trace")

        region_chunk = self.region_chunk
        if region_chunk is None:
            region_chunk = max(MiB, int((offsets + sizes).max()) // 256)
        regions, _ = divide_regions_bounded(
            offsets,
            sizes,
            region_chunk=region_chunk,
            initial_threshold=self.threshold,
            min_requests=self.min_requests_per_region,
        )
        entries = []
        for region in regions:
            lo, hi = region.first_request, region.last_request
            choice = determine_stripes_multiclass(
                self.params,
                offsets[lo:hi],
                sizes[lo:hi],
                is_read[lo:hi],
                avg_request_size=region.avg_request_size,
                step=self.step,
                max_requests=self.max_requests_per_region,
            )
            entries.append(
                RSTEntry(
                    region_id=region.region_id,
                    offset=region.offset,
                    end=region.end,
                    config=MultiClassStripingConfig(
                        [
                            ClassStripe(tier.count, stripe)
                            for tier, stripe in zip(self.params.tiers, choice.stripes)
                        ]
                    ),
                )
            )
        rst = RegionStripeTable(entries)
        return rst.merged() if self.merge_regions else rst
