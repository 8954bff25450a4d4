"""Algorithm 2: per-region optimal stripe-size determination.

For one region holding requests ``R_0..R_{k-1}`` with average size R̄, the
paper grid-searches stripe pairs::

    for h in 0, step, 2·step, ..., R̄:
        for s in h + step, ..., R̄:
            cost(h, s) = Σ_i T(R_i | h, s)          # Eq. (7)/(8) per op type

and keeps the minimizing pair. ``s`` starts above ``h`` because SServers are
faster and should carry at least as much data (load balance); ``h = 0``
covers the SServer-only extreme (the Fig. 9 optimum for small requests);
``h = R̄`` covers the one-HServer-per-request extreme.

Our implementation is exhaustive over the same grid but vectorized. It
lists the grid first, then splits the region's requests once per distinct
round size ``M·h + N·s`` (a few hundred of them for thousands of pairs at
6H+2S and a 4 KiB step) with one exact int64 ``divmod``
(:func:`repro.pfs.mapping.round_split`, int32 when every round size plus
request size stays below ``2**31``). Each ``h`` then gathers its
candidates' rows and scores *all* its ``s`` candidates against *all*
region requests in one call of the cost model's summing routine
(:mod:`repro.core.cost_model`), looping only over each class's few
servers. That turns the paper's triple loop into ``#h`` calls. The calls
stay one per ``h``: scoring candidates of several ``h`` together would
change no argmin, but moves the summed costs by an ulp. Regions with very
many requests are down-sampled to ``max_requests`` deterministic samples;
the cost sum is rescaled, which preserves the argmin for homogeneous
regions (and regions are CV-homogeneous by construction).
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.core.cost_model import _pair_costs
from repro.core.params import CostModelParameters
from repro.pfs.mapping import round_split
from repro.util.units import KiB, format_size

if TYPE_CHECKING:
    from repro.core.space import SpaceConstraint


class InfeasiblePlacementError(ValueError):
    """Raised when a space constraint rejects every candidate stripe pair."""


# ---------------------------------------------------------------------------
# Region-signature memoization (the planner-caching layer)
# ---------------------------------------------------------------------------
#
# RST construction, re-planning in online re-layout, and figure sweeps keep
# presenting Algorithm 2 with regions it has already solved: identical
# request patterns at different file offsets (IOR's per-process blocks), or
# literally the same region re-planned for another comparison series. The
# grid search is deterministic, so its argmin can be memoized.
#
# The cache key (the *region signature*) is an exact content hash of every
# input that influences the search: the calibrated parameter bundle, the
# resolved grid geometry (step, max_stripe, max_requests) and the rebased
# request arrays. Offsets are hashed after rebasing to the region origin, so
# a repeated pattern at a different absolute offset still hits. Because the
# signature is exact (not a lossy histogram), a cache hit returns exactly
# what recomputation would — warm and cold caches are bit-identical, which
# the determinism suite relies on. Space-constrained searches bypass the
# cache entirely: their feasible set depends on mutable remaining budgets.

_STRIPE_CACHE: OrderedDict[bytes, StripeChoice] = OrderedDict()
_STRIPE_CACHE_MAX = 1024
_stripe_cache_hits = 0
_stripe_cache_misses = 0


def stripe_cache_capacity() -> int:
    """Effective LRU capacity: ``REPRO_STRIPE_CACHE`` when set, else 1024.

    Read lazily on every :func:`determine_stripes` call so long-lived
    processes (pool workers, notebooks) pick changes up without a restart.
    ``0`` disables memoization entirely — every region runs the full grid
    search, which the determinism suite uses to prove warm and cold caches
    are bit-identical.
    """
    env = os.environ.get("REPRO_STRIPE_CACHE", "").strip()
    if not env:
        return _STRIPE_CACHE_MAX
    try:
        value = int(env)
    except ValueError as exc:
        raise ValueError(f"REPRO_STRIPE_CACHE must be an integer, got {env!r}") from exc
    return max(0, value)


def _region_signature(
    params: CostModelParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    step: int,
    max_stripe: int,
    max_requests: int,
) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    digest.update(repr((params, step, max_stripe, max_requests)).encode())
    digest.update(offsets.tobytes())
    digest.update(sizes.tobytes())
    digest.update(is_read.tobytes())
    return digest.digest()


def stripe_cache_info() -> dict[str, int]:
    """Hit/miss/size counters of the Algorithm 2 memoization cache."""
    return {
        "hits": _stripe_cache_hits,
        "misses": _stripe_cache_misses,
        "size": len(_STRIPE_CACHE),
        "maxsize": stripe_cache_capacity(),
    }


def clear_stripe_cache() -> None:
    """Drop all memoized stripe choices and zero the counters."""
    global _stripe_cache_hits, _stripe_cache_misses
    _STRIPE_CACHE.clear()
    _stripe_cache_hits = 0
    _stripe_cache_misses = 0


@dataclass(frozen=True)
class StripeChoice:
    """The winning stripe pair for a region and its modeled cost."""

    hstripe: int
    sstripe: int
    cost: float

    def describe(self) -> str:
        """Paper-style label, e.g. ``"{32K, 160K}"``."""
        return f"{{{format_size(self.hstripe)}, {format_size(self.sstripe)}}}"


def _sample_requests(
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    max_requests: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """Deterministic stride sampling; returns arrays plus a cost rescale."""
    k = offsets.shape[0]
    if k <= max_requests:
        return offsets, sizes, is_read, 1.0
    idx = np.linspace(0, k - 1, max_requests).round().astype(np.int64)
    idx = np.unique(idx)
    scale = k / idx.shape[0]
    return offsets[idx], sizes[idx], is_read[idx], scale


def determine_stripes(
    params: CostModelParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    avg_request_size: float | None = None,
    step: int | None = 4 * KiB,
    max_requests: int = 512,
    max_stripe: int | None = None,
    constraint: "SpaceConstraint | None" = None,
) -> StripeChoice:
    """Find the cost-minimizing (h, s) for one region's request slice.

    Args:
        params: calibrated cost model parameters (M, N, t, profiles).
        offsets, sizes: the region's requests, absolute byte addresses.
            Offsets are rebased to the region start internally, because a
            region is laid out as its own physical file (R2F) whose striping
            rounds start at the region origin.
        is_read: boolean per request (False = write).
        avg_request_size: the region's R̄ from Algorithm 1; computed from
            ``sizes`` when omitted.
        step: the grid step (the paper's default is 4 KB). ``None`` picks
            an adaptive step — R̄/32 rounded to a 4 KB multiple, floored at
            4 KB — which keeps the grid ~32x32 regardless of request scale
            while preserving the paper's resolution for small requests.
        max_requests: down-sampling cap for very dense regions.
        max_stripe: override for the search's upper bound (defaults to R̄
            rounded up to a step multiple).
        constraint: optional :class:`repro.core.space.SpaceConstraint`; the
            search is restricted to pairs whose per-server storage footprint
            fits the remaining capacities (the paper's Discussion on SServer
            space consumption).

    Returns:
        The :class:`StripeChoice` with minimal summed cost. Ties break toward
        smaller (h, s), matching a scan in the paper's loop order.

    Raises:
        InfeasiblePlacementError: if ``constraint`` rejects every grid pair.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    if not (offsets.shape == sizes.shape == is_read.shape) or offsets.ndim != 1:
        raise ValueError("offsets, sizes, is_read must be equal-length 1-D arrays")
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
    if max_stripe is None:
        max_stripe = max(step, int(-(-avg_request_size // step)) * step)
    else:
        max_stripe = max(step, int(max_stripe))

    cache_capacity = stripe_cache_capacity()
    use_cache = constraint is None and cache_capacity > 0
    if use_cache:
        global _stripe_cache_hits, _stripe_cache_misses
        signature = _region_signature(
            params, offsets, sizes, is_read, step, max_stripe, max_requests
        )
        cached = _STRIPE_CACHE.get(signature)
        if cached is not None:
            _stripe_cache_hits += 1
            _STRIPE_CACHE.move_to_end(signature)
            return cached
        _stripe_cache_misses += 1

    offsets, sizes, is_read, scale = _sample_requests(offsets, sizes, is_read, max_requests)

    M, N = params.n_hservers, params.n_sservers
    h_values = (
        np.arange(0, max_stripe + 1, step, dtype=np.int64)
        if M > 0
        else np.array([0], dtype=np.int64)
    )

    # The grid in scan order: (h, its s candidates).
    grid: list[tuple[int, np.ndarray]] = []
    for h in h_values:
        h = int(h)
        if N > 0:
            if constraint is None:
                # Algorithm 2's grid: s > h (SServers carry at least as much).
                s_candidates = np.arange(h + step, max_stripe + 1, step, dtype=np.int64)
            else:
                # Space-bounded search relaxes s > h: a tight SServer budget
                # may force s <= h, which is still a better use of SServers
                # than abandoning them entirely.
                s_candidates = np.arange(0, max_stripe + 1, step, dtype=np.int64)
                if h == 0:
                    s_candidates = s_candidates[s_candidates > 0]
            if s_candidates.size == 0:
                if h == 0:
                    continue  # h = 0 with no SServer stripe distributes nothing.
                s_candidates = None  # HServer-only extreme (h at the top of the grid).
        else:
            s_candidates = None
            if h == 0:
                continue
        if s_candidates is None:
            s_array = np.array([0], dtype=np.int64)
        else:
            s_array = s_candidates
        if constraint is not None:
            feasible = constraint.mask(h, s_array)
            if not feasible.any():
                continue
            s_array = s_array[feasible]
        grid.append((h, s_array))

    if not grid:
        if constraint is not None:
            raise InfeasiblePlacementError(
                "no stripe pair satisfies the space constraint: "
                f"budgets={constraint.per_server_budgets}, "
                f"region_extent={constraint.region_extent}"
            )
        raise ValueError(
            f"empty stripe grid: avg_request_size={avg_request_size}, step={step}, M={M}, N={N}"
        )

    # Split the requests once per distinct round size M·h + N·s of the whole
    # grid (a few hundred for thousands of pairs); each h then gathers its
    # candidates' rows instead of dividing again.
    round_sizes = np.concatenate([M * h + N * s_array for h, s_array in grid])
    distinct, rows = np.unique(round_sizes, return_inverse=True)
    table = round_split(offsets, sizes, distinct[:, None])
    best: StripeChoice | None = None
    at = 0
    for h, s_array in grid:
        picked = rows[at : at + s_array.shape[0]]
        at += s_array.shape[0]
        costs = _pair_costs(params, tuple(part[picked] for part in table), is_read, h, s_array)
        idx = int(np.argmin(costs))
        candidate = StripeChoice(hstripe=h, sstripe=int(s_array[idx]), cost=float(costs[idx]) * scale)
        if best is None or candidate.cost < best.cost:
            best = candidate
    if use_cache:
        _STRIPE_CACHE[signature] = best
        while len(_STRIPE_CACHE) > cache_capacity:
            _STRIPE_CACHE.popitem(last=False)
    return best


def reference_determine_stripes(
    params: CostModelParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    avg_request_size: float | None = None,
    step: int = 4 * KiB,
) -> StripeChoice:
    """The paper's literal triple loop (scalar cost per request).

    Quadratically slower than :func:`determine_stripes`; exists as the test
    oracle proving the vectorized search scans the same grid to the same
    minimum.
    """
    from repro.core.cost_model import request_cost

    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    base = int(offsets.min())
    offsets = offsets - base
    if avg_request_size is None:
        avg_request_size = float(sizes.mean())
    max_stripe = max(step, int(-(-avg_request_size // step)) * step)
    M, N = params.n_hservers, params.n_sservers

    best: StripeChoice | None = None
    h_values = range(0, max_stripe + 1, step) if M > 0 else [0]
    for h in h_values:
        if N > 0:
            s_values: list[int] = list(range(h + step, max_stripe + 1, step))
            if not s_values:
                if h == 0:
                    continue
                s_values = [0]
        else:
            if h == 0:
                continue
            s_values = [0]
        for s in s_values:
            cost = 0.0
            for o, r, rd in zip(offsets, sizes, is_read):
                op = "read" if rd else "write"
                cost += request_cost(params, op, int(o), int(r), h, s)
            if best is None or cost < best.cost:
                best = StripeChoice(hstripe=h, sstripe=s, cost=cost)
    assert best is not None
    return best
