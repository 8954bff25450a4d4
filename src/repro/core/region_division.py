"""Algorithm 1: variable-size file region division.

The trace's requests, sorted by offset, are scanned once. A running
coefficient of variation (CV = std / mean of request sizes since the region
began) is maintained; when adding the next request moves the CV by more than
``threshold`` (relative change, the paper's 100% default), the region is
closed *including* the triggering request and a new region begins. The
result is a list of regions, each with its byte range, average request size,
and the slice of trace requests it serves — Algorithm 2's input. The scan
runs as numpy folds with no per-request Python loop, and every float it
computes equals the listing's (see ``_Scan``).

Deviations from the listing, documented in DESIGN.md:

- The listing divides by ``cv_prev``, which is 0 at region start and after
  any uniform run — a literal reading makes every 0 → positive transition an
  infinite relative change, splitting on the first size wobble *at any
  threshold*, which defeats the paper's threshold-raising guard. We measure
  relative change against ``max(cv_prev, cv_floor)`` (default floor 0.05):
  a genuine phase change (CV jumping from ~0 to ~0.3+) still far exceeds
  the 100% threshold, while the guard can now actually loosen sensitivity.
- ``min_requests`` (default 2) keeps a region from closing before it has a
  minimum sample count; ``min_requests=1`` restores the listing's behaviour.
- The listing never flushes the final region; we do.

:func:`divide_regions_bounded` wraps the scan with the paper's metadata
guard (Sec. III-C): if more regions emerge than a fixed-size division (the
segment-level scheme's ``file_extent / region_chunk``) would produce, the
threshold is raised geometrically until the count fits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

#: Region fold: first/maximum requests folded per numpy pass.
_BLOCK_MIN = 64
_BLOCK_MAX = 65536
#: Short-region table: the longest region it resolves, and how many
#: consecutive starts one table covers.
_SHORT = 16
_TABLE_STARTS = 1024


@dataclass(frozen=True)
class Region:
    """One file region and the trace slice that hits it.

    ``offset`` is the region's first byte; ``end`` is exclusive (None for
    the last region — it extends to EOF). ``first_request``/``last_request``
    index the offset-sorted trace arrays (``last_request`` exclusive).
    """

    region_id: int
    offset: int
    end: int | None
    avg_request_size: float
    first_request: int
    last_request: int

    @property
    def n_requests(self) -> int:
        return self.last_request - self.first_request


def _finalize(regions_raw: list[tuple[int, float, int, int]], offsets: np.ndarray) -> list[Region]:
    """Attach exclusive end offsets (= next region's start) and ids."""
    regions: list[Region] = []
    for idx, (start_offset, avg, first, last) in enumerate(regions_raw):
        if idx + 1 < len(regions_raw):
            end: int | None = regions_raw[idx + 1][0]
        else:
            end = None
        regions.append(
            Region(
                region_id=idx,
                offset=start_offset,
                end=end,
                avg_request_size=avg,
                first_request=first,
                last_request=last,
            )
        )
    return regions


def divide_regions(
    offsets: np.ndarray,
    sizes: np.ndarray,
    threshold: float = 1.0,
    min_requests: int = 2,
    cv_floor: float = 0.05,
) -> list[Region]:
    """Run Algorithm 1 over an offset-sorted request stream.

    Args:
        offsets, sizes: request byte offsets and sizes, sorted by offset
            (the trace collector's output order).
        threshold: relative CV-change split threshold; the paper's 100%
            default is ``1.0``.
        min_requests: minimum requests a region must hold before a split may
            trigger (1 = the paper's literal listing).
        cv_floor: denominator floor for the relative CV change, so that the
            0 → positive transition is a large-but-finite change the
            threshold guard can still override (see module docstring).

    Returns:
        Regions covering the accessed address space in offset order. The
        first region starts at offset 0 (file origin), per the paper.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape or offsets.ndim != 1:
        raise ValueError("offsets and sizes must be equal-length 1-D arrays")
    if threshold <= 0:
        raise ValueError(f"threshold must be > 0, got {threshold}")
    if min_requests < 1:
        raise ValueError(f"min_requests must be >= 1, got {min_requests}")
    if cv_floor <= 0:
        raise ValueError(f"cv_floor must be > 0, got {cv_floor}")
    n = offsets.shape[0]
    if n == 0:
        return []
    if np.any(np.diff(offsets) < 0):
        raise ValueError("requests must be sorted by offset (trace collector order)")
    if np.any(sizes <= 0):
        raise ValueError("request sizes must be > 0")

    scan = _Scan(sizes, threshold, min_requests, cv_floor)
    regions_raw: list[tuple[int, float, int, int]] = []
    first = 0
    while first < n:
        last, avg = scan.region(first)
        # The first region begins at the file origin, the rest at their
        # first request.
        regions_raw.append((int(offsets[first]) if regions_raw else 0, avg, first, last))
        first = last
    return _finalize(regions_raw, offsets)


class _Scan:
    """Algorithm 1's region scan over one trace, without a per-request loop.

    Within a region the running ``total``/``total_sq`` are sequential left
    folds (``np.add.accumulate``, or one ``+`` per column below), and the
    count, mean, variance, CV and relative change are elementwise IEEE
    operations, so every float equals the per-request listing's. A region
    is found one of two ways:

    - a long region folds in blocks that grow geometrically from its start
      (as ``repro.pfs.columnar._chain`` does) until the first split;
    - after a short region, one table resolves every start in the next
      ``_TABLE_STARTS`` requests whose region closes within ``_SHORT``
      requests, column by column, so a run of tiny regions costs a few
      numpy passes instead of one block per region.
    """

    def __init__(self, sizes: np.ndarray, threshold: float, min_requests: int, cv_floor: float):
        self.r = sizes.astype(np.float64)
        self.r_sq = self.r * self.r
        self.counts = np.arange(1, self.r.shape[0] + 1, dtype=np.float64)
        self.threshold = threshold
        self.min_requests = min_requests
        self.cv_floor = cv_floor
        self.short = False  # whether the last region was short
        self.table_first = 0
        self.lengths: list[int] = []  # per start: its region's length, 0 = unresolved
        self.avgs: list[float] = []

    @staticmethod
    def _moments(tot, tot_sq, count):
        """Mean and CV of a region from its running sums."""
        avg = tot / count
        return avg, np.sqrt(np.maximum(0.0, tot_sq / count - avg * avg)) / avg

    def _splits(self, cv, prev):
        """Whether the CV moved by the threshold or more (NaN-safe ``not <``)."""
        return ~(np.abs(cv - prev) / np.maximum(prev, self.cv_floor) < self.threshold)

    def region(self, first: int) -> tuple[int, float]:
        """``(last, avg)`` of the region starting at request ``first``."""
        at = first - self.table_first
        if self.short and not 0 <= at < len(self.lengths):
            self._tabulate(first)
            at = 0
        if 0 <= at < len(self.lengths) and self.lengths[at]:
            last, avg = first + self.lengths[at], self.avgs[at]
        else:
            last, avg = self._fold(first)
        self.short = last - first <= _SHORT
        return last, avg

    def _tabulate(self, first: int) -> None:
        """Regions of at most ``_SHORT`` requests for the next starts."""
        r, r_sq = self.r, self.r_sq
        n = r.shape[0]
        m = min(n - first, _TABLE_STARTS)
        lengths = np.zeros(m, dtype=np.int64)
        avgs = np.zeros(m)
        tot = tot_sq = prev = np.zeros(m)
        for k in range(min(_SHORT, n - first)):
            live = min(m, n - first - k)  # starts whose (k+1)-th request exists
            lo = first + k
            tot = tot[:live] + r[lo : lo + live]
            tot_sq = tot_sq[:live] + r_sq[lo : lo + live]
            avg, cv = self._moments(tot, tot_sq, k + 1)
            if k + 1 >= self.min_requests:
                closes = self._splits(cv, prev[:live]) & (lengths[:live] == 0)
                lengths[:live][closes] = k + 1
                avgs[:live][closes] = avg[closes]
            prev = cv
        self.table_first = first
        self.lengths = lengths.tolist()
        self.avgs = avgs.tolist()

    def _fold(self, first: int) -> tuple[int, float]:
        """The region from ``first`` by geometric blocks; ``last`` is one
        past the request that closes it, or the trace end."""
        r, r_sq = self.r, self.r_sq
        n = r.shape[0]
        total = total_sq = cv_prev = 0.0
        start = first
        block = _BLOCK_MIN
        while True:
            stop = min(n, start + block)
            done = start - first  # requests already folded into the region
            tot = np.add.accumulate(np.concatenate(([total], r[start:stop])))[1:]
            tot_sq = np.add.accumulate(np.concatenate(([total_sq], r_sq[start:stop])))[1:]
            avg, cv = self._moments(tot, tot_sq, self.counts[done : done + stop - start])
            split = self._splits(cv, np.concatenate(([cv_prev], cv[:-1])))
            split[: max(0, self.min_requests - 1 - done)] = False
            if split.any():
                at = int(split.argmax())
                return start + at + 1, float(avg[at])
            if stop == n:
                return n, float(avg[-1])
            total, total_sq, cv_prev = tot[-1], tot_sq[-1], cv[-1]
            start = stop
            block = min(2 * block, _BLOCK_MAX)


def divide_regions_bounded(
    offsets: np.ndarray,
    sizes: np.ndarray,
    file_extent: int | None = None,
    region_chunk: int = 64 * 1024 * 1024,
    initial_threshold: float = 1.0,
    growth: float = 1.5,
    max_rounds: int = 32,
    min_requests: int = 2,
    cv_floor: float = 0.05,
) -> tuple[list[Region], float]:
    """Algorithm 1 plus the paper's region-count guard.

    The region count must not exceed what a fixed-size division into
    ``region_chunk`` pieces would produce (the segment-level scheme's
    count); otherwise the threshold is multiplied by ``growth`` and the scan
    repeats, loosening the CV sensitivity (Sec. III-C).

    Returns:
        ``(regions, threshold_used)``.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if region_chunk <= 0:
        raise ValueError(f"region_chunk must be > 0, got {region_chunk}")
    if growth <= 1.0:
        raise ValueError(f"growth must be > 1, got {growth}")
    if offsets.shape[0] == 0:
        return [], initial_threshold
    if file_extent is None:
        file_extent = int((offsets + sizes).max())
    max_regions = max(1, math.ceil(file_extent / region_chunk))

    threshold = initial_threshold
    regions = divide_regions(
        offsets, sizes, threshold=threshold, min_requests=min_requests, cv_floor=cv_floor
    )
    rounds = 0
    while len(regions) > max_regions and rounds < max_rounds:
        threshold *= growth
        regions = divide_regions(
            offsets, sizes, threshold=threshold, min_requests=min_requests, cv_floor=cv_floor
        )
        rounds += 1
    if len(regions) > max_regions:
        # Threshold tuning saturated (pathological alternating workloads):
        # fall back to the fixed-size division the paper compares against.
        regions = fixed_size_division(offsets, sizes, region_chunk)
    return regions, threshold


def fixed_size_division(
    offsets: np.ndarray,
    sizes: np.ndarray,
    region_chunk: int,
) -> list[Region]:
    """The segment-level scheme's fixed-chunk division (comparison baseline).

    Splits the address space into ``region_chunk``-sized pieces and groups
    the offset-sorted requests by the chunk containing their start offset.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if region_chunk <= 0:
        raise ValueError(f"region_chunk must be > 0, got {region_chunk}")
    n = offsets.shape[0]
    if n == 0:
        return []
    chunk_ids = offsets // region_chunk
    regions_raw: list[tuple[int, float, int, int]] = []
    first = 0
    for i in range(1, n + 1):
        if i == n or chunk_ids[i] != chunk_ids[first]:
            avg = float(sizes[first:i].mean())
            start = int(chunk_ids[first]) * region_chunk if regions_raw else 0
            regions_raw.append((start, avg, first, i))
            first = i
    return _finalize(regions_raw, offsets)
