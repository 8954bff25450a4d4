"""Algorithm 1 against a scalar reference scan, region for region.

``_scalar_divide`` below is the per-request loop ``divide_regions`` ran
before it became a restartable vectorized fold: a running sum and sum of
squares, the CV and its relative change, one Python iteration per request.
The property requires the same regions (bounds, request slices and the
``avg_request_size`` float bit for bit) over random sizes, thresholds,
``min_requests`` of 1 and above, ``cv_floor`` values, long uniform runs and
single-request traces.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.region_division import _finalize, divide_regions, divide_regions_bounded
from repro.util.units import KiB


def _scalar_divide(offsets, sizes, threshold=1.0, min_requests=2, cv_floor=0.05):
    n = offsets.shape[0]
    regions_raw = []
    reg_init = 0
    total = 0.0
    total_sq = 0.0
    cv_prev = 0.0
    region_start_offset = 0
    for i in range(n):
        r = float(sizes[i])
        total += r
        total_sq += r * r
        count = i - reg_init + 1
        avg = total / count
        variance = max(0.0, total_sq / count - avg * avg)
        cv_new = math.sqrt(variance) / avg if avg > 0 else 0.0
        rel_change = abs(cv_new - cv_prev) / max(cv_prev, cv_floor)
        if rel_change < threshold or count < min_requests:
            cv_prev = cv_new
        else:
            regions_raw.append((region_start_offset, avg, reg_init, i + 1))
            reg_init = i + 1
            total = 0.0
            total_sq = 0.0
            cv_prev = 0.0
            if i + 1 < n:
                region_start_offset = int(offsets[i + 1])
    if reg_init < n:
        regions_raw.append((region_start_offset, total / (n - reg_init), reg_init, n))
    return _finalize(regions_raw, offsets)


def _key(regions):
    return [
        (r.region_id, r.offset, r.end, r.avg_request_size.hex(), r.first_request, r.last_request)
        for r in regions
    ]


#: Size pools: uniform runs broken by phase changes, wide random spreads,
#: and near-equal sizes whose CV hovers just around the threshold.
_POOLS = (
    (64 * KiB,),
    (4 * KiB, 64 * KiB, 1024 * KiB),
    (64 * KiB, 65 * KiB, 66 * KiB),
)


@st.composite
def _traces(draw):
    runs = draw(st.lists(st.tuples(st.sampled_from(_POOLS), st.integers(1, 300)),
                         min_size=1, max_size=6))
    sizes = []
    for pool, length in runs:
        if draw(st.booleans()):
            sizes += [draw(st.sampled_from(pool))] * length  # a uniform run
        else:
            sizes += draw(st.lists(st.sampled_from(pool), min_size=length, max_size=length))
    if draw(st.booleans()):
        sizes += draw(st.lists(st.integers(1, 4 * 1024 * KiB), max_size=40))
    sizes = np.array(sizes, dtype=np.int64)
    gaps = np.array(draw(st.lists(st.sampled_from((0, 1, 4096)), min_size=sizes.shape[0],
                                  max_size=sizes.shape[0])), dtype=np.int64)
    offsets = np.cumsum(sizes + gaps) - sizes[0] - gaps[0]
    return offsets, sizes


@settings(max_examples=300, deadline=None)
@given(
    _traces(),
    st.sampled_from((0.05, 0.3, 1.0, 1.5, 2.25, 8.0)),
    st.sampled_from((1, 2, 3, 8)),
    st.sampled_from((0.001, 0.05, 0.5)),
)
def test_fold_matches_scalar_scan(trace, threshold, min_requests, cv_floor):
    offsets, sizes = trace
    kwargs = dict(threshold=threshold, min_requests=min_requests, cv_floor=cv_floor)
    assert _key(divide_regions(offsets, sizes, **kwargs)) == _key(
        _scalar_divide(offsets, sizes, **kwargs)
    )


@pytest.mark.parametrize("min_requests", [1, 2])
def test_single_request_trace(min_requests):
    offsets = np.array([4096], dtype=np.int64)
    sizes = np.array([65536], dtype=np.int64)
    got = divide_regions(offsets, sizes, min_requests=min_requests)
    assert _key(got) == _key(_scalar_divide(offsets, sizes, min_requests=min_requests))
    assert len(got) == 1 and got[0].offset == 0 and got[0].end is None


def test_many_regions_match():
    """A trace that splits every few requests: thousands of regions."""
    rng = np.random.default_rng(7)
    sizes = rng.choice(np.array([4 * KiB, 1024 * KiB]), size=20_000).astype(np.int64)
    offsets = np.cumsum(sizes) - sizes[0]
    for min_requests in (1, 2):
        got = divide_regions(offsets, sizes, threshold=0.5, min_requests=min_requests)
        assert len(got) > 1000
        assert _key(got) == _key(
            _scalar_divide(offsets, sizes, threshold=0.5, min_requests=min_requests)
        )


def test_bounded_threshold_raising_matches():
    """The region-count guard re-scans at raised thresholds; each scan is
    the fold, so the threshold it settles on and its regions match."""
    rng = np.random.default_rng(3)
    sizes = rng.choice(np.array([4 * KiB, 64 * KiB, 1024 * KiB]), size=3000).astype(np.int64)
    offsets = np.cumsum(sizes) - sizes[0]
    regions, threshold = divide_regions_bounded(offsets, sizes, region_chunk=64 * 1024 * KiB)
    assert threshold > 1.0
    assert _key(regions) == _key(_scalar_divide(offsets, sizes, threshold=threshold))
