"""The analytical access cost model (paper Sec. III-D, Eq. 1–8).

Cost of one file request ``(op, o, r)`` striped with (h, s) over M HServers
and N SServers::

    T = T_X + T_S + T_T

- ``T_X = max(s_m, s_n) · t``                        (Eq. 1, network)
- ``T_S = max(T_h^S, T_s^S)`` where each class contributes the expected
  maximum of its per-server uniform startup draws (Eq. 3–5)::

      T_h^S = α_min + m/(m+1) · (α_max − α_min)      if m > 0, else 0

- ``T_T = max(s_m · β_h, s_n · β_s)``                (Eq. 6, storage)

with (s_m, s_n, m, n) the critical parameters of the request's sub-request
distribution. Writes use the SServer write parameter set (Eq. 8).

The paper derives (s_m, s_n, m, n) by the Figure 5 case analysis; we compute
them exactly from the striping math (:mod:`repro.pfs.mapping`), which agrees
with Fig. 5 where Fig. 5 is exact and corrects its under-count in the
multi-round, multi-column cases (servers between the beginning and ending
columns receive Δr+1 stripes, not Δr). The ablation bench
``benchmarks/test_ablation_cost_model.py`` quantifies the difference.

Three entry points:

- :func:`request_cost` — scalar, one request.
- :func:`request_cost_breakdown` — scalar with the (T_X, T_S, T_T) split.
- :func:`total_cost_vectorized` — summed cost of a request batch for a
  whole vector of candidate ``s`` values at fixed ``h``; this is Algorithm
  2's inner loop. It shares one summing routine, ``_summed_cost``, with
  :func:`repro.core.multiclass.multiclass_total_cost`.

The summing routine works on (candidates × requests) arrays in two stages.
The integer stage takes the requests already split by each candidate's
round size S (:func:`repro.pfs.mapping.round_split`: ``(rx, ry, qy − qx)``
from one exact int64 ``divmod``), so every class shares the split, and
Algorithm 2 computes it once per distinct S of a region's grid. The split
is int32 when ``max(S) + max(size) < 2**31`` and int64 otherwise; the
server loop (:func:`repro.pfs.mapping.class_critical_params`) runs in that
dtype on one code path, and its integers convert to the same float64
values either way. The float stage looks the startup term up in one table
of per-class maxima, indexed by a mixed-radix key over the classes'
touched counts (``max`` returns one of its operands, so this is the float
the per-class lookups would give). Each per-request cost is therefore
bit-identical to :func:`request_cost`; the routine adds them per candidate
one by one in request order, reads and writes separately
(``tests/data/plan_golden.json`` pins the sums).
"""

from __future__ import annotations

import functools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import CostModelParameters
from repro.devices.base import OpType
from repro.devices.profiles import DeviceProfile
from repro.pfs.mapping import (
    StripingConfig,
    class_critical_params,
    critical_params,
    round_split,
)


@dataclass(frozen=True)
class CostBreakdown:
    """The three additive cost phases of one request."""

    network: float
    startup: float
    transfer: float

    @property
    def total(self) -> float:
        return self.network + self.startup + self.transfer


def _expected_max_startup(lo: float, hi: float, count: int) -> float:
    """Eq. (3)/(4): expected max of ``count`` Uniform(lo, hi) draws."""
    if count <= 0:
        return 0.0
    return lo + (count / (count + 1)) * (hi - lo)


def request_cost_breakdown(
    params: CostModelParameters,
    op: OpType | str,
    offset: int,
    size: int,
    hstripe: int,
    sstripe: int,
) -> CostBreakdown:
    """Cost phases of one request under stripe pair (hstripe, sstripe)."""
    op = OpType.parse(op)
    if size <= 0:
        return CostBreakdown(0.0, 0.0, 0.0)
    config = StripingConfig(
        n_hservers=params.n_hservers,
        n_sservers=params.n_sservers,
        hstripe=hstripe,
        sstripe=sstripe,
    )
    crit = critical_params(config, offset, size)
    t = params.unit_network_time
    network = max(crit.s_m, crit.s_n) * t

    h_lo, h_hi = params.hserver.alpha_bounds(op)
    s_lo, s_hi = params.sserver.alpha_bounds(op)
    startup = max(
        _expected_max_startup(h_lo, h_hi, crit.m),
        _expected_max_startup(s_lo, s_hi, crit.n),
    )
    transfer = max(
        crit.s_m * params.hserver.beta(op),
        crit.s_n * params.sserver.beta(op),
    )
    return CostBreakdown(network=network, startup=startup, transfer=transfer)


def request_cost(
    params: CostModelParameters,
    op: OpType | str,
    offset: int,
    size: int,
    hstripe: int,
    sstripe: int,
) -> float:
    """Eq. (7)/(8): total cost of one request."""
    return request_cost_breakdown(params, op, offset, size, hstripe, sstripe).total


def _summed_cost(
    classes: Sequence[tuple[int, DeviceProfile]],
    unit_network_time: float,
    split: tuple[np.ndarray, np.ndarray, np.ndarray],
    is_read: np.ndarray,
    stripe_matrix: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every row of a stripe matrix.

    ``classes`` lists (server count, profile) per class in round order;
    counts may be 0. ``stripe_matrix`` is ``(n_cand, K)`` with every row
    distributing some data, and ``split`` is the requests'
    :func:`~repro.pfs.mapping.round_split` by each row's round size, as
    ``(n_cand, k)`` arrays. Both public cost routines reduce to this one.
    """
    rx = split[0]
    n_cand = stripe_matrix.shape[0]
    if rx.shape[1] == 0:
        return np.zeros(n_cand, dtype=np.float64)
    # Window geometry in the split's dtype: class starts are prefix sums of
    # count_i · stripe_i, all at most the round size.
    counts = np.array([count for count, _ in classes], dtype=rx.dtype)
    stripes = stripe_matrix.astype(rx.dtype)
    bases = np.zeros_like(stripes)
    np.cumsum(stripes[:, :-1] * counts[:-1], axis=1, out=bases[:, 1:])
    per_class = [
        class_critical_params(*split, bases[:, i : i + 1], stripes[:, i : i + 1], count)
        for i, (count, _) in enumerate(classes)
    ]
    largest = [pair[0] for pair in per_class]
    network = largest[0]
    for other in largest[1:]:
        network = np.maximum(network, other)
    network = network * unit_network_time
    # One mixed-radix key over every class's touched count (see
    # _startup_table), so the startup term is one lookup per request.
    key = per_class[0][1]
    for (count, _), (_, touched) in zip(classes[1:], per_class[1:]):
        key *= count + 1
        key += touched

    total = np.zeros(n_cand, dtype=np.float64)
    for op in (OpType.READ, OpType.WRITE):
        mask = is_read if op is OpType.READ else ~is_read
        if not mask.any():
            continue
        startup = _startup_table(
            tuple((count, *profile.alpha_bounds(op)) for count, profile in classes)
        )[key]
        transfer = largest[0] * classes[0][1].beta(op)
        for (_, profile), part in zip(classes[1:], largest[1:]):
            transfer = np.maximum(transfer, part * profile.beta(op))
        # x[:, mask] is F-ordered, so the sum runs over requests one by one
        # per candidate; keep that operand (even for single-op batches) or
        # the pairwise order moves results by an ulp.
        total += (network + startup + transfer)[:, mask].sum(axis=1)
    return total


@functools.lru_cache(maxsize=64)
def _startup_table(bounds: tuple[tuple[int, float, float], ...]) -> np.ndarray:
    """Startup term T_S for every combined touched key.

    ``bounds`` holds (server count, α_min, α_max) per class. Eq. (3)/(4) is
    tabulated per class over touched counts 0..count with the per-request
    float expression; entry ``key = Σ touched_i · Π_{j>i}(count_j + 1)``
    holds the maximum over the classes. ``max`` returns one of its
    operands, so a lookup gives the same float as the maximum of the
    per-class lookups.
    """
    table = np.zeros(1)
    for count, lo, hi in bounds:
        c = np.arange(count + 1, dtype=np.float64)
        per_class = np.where(c > 0, lo + (c / (c + 1.0)) * (hi - lo), 0.0)
        table = np.maximum.outer(table, per_class).ravel()
    table.flags.writeable = False
    return table


def _pair_costs(
    params: CostModelParameters,
    split: tuple[np.ndarray, np.ndarray, np.ndarray],
    is_read: np.ndarray,
    hstripe: int,
    s_candidates: np.ndarray,
) -> np.ndarray:
    """:func:`total_cost_vectorized` on a ready round split, unchecked."""
    stripe_matrix = np.column_stack([np.full_like(s_candidates, hstripe), s_candidates])
    return _summed_cost(
        ((params.n_hservers, params.hserver), (params.n_sservers, params.sserver)),
        params.unit_network_time,
        split,
        is_read,
        stripe_matrix,
    )


def total_cost_vectorized(
    params: CostModelParameters,
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    hstripe: int,
    s_candidates: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every candidate ``s`` at fixed ``h``.

    Args:
        params: cost model parameters.
        offsets, sizes: int64 arrays, one entry per request.
        is_read: boolean array; False entries are writes.
        hstripe: the HServer stripe h under evaluation (bytes, may be 0).
        s_candidates: int64 array of SServer stripes s to evaluate; every
            entry must satisfy ``M·h + N·s > 0``.

    Returns:
        float64 array of shape ``(len(s_candidates),)`` — the region cost
        (sum over requests) for each (h, s) pair. Algorithm 2 minimizes this
        over the whole grid.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    is_read = np.asarray(is_read, dtype=bool)
    s_candidates = np.asarray(s_candidates, dtype=np.int64)
    if not (offsets.shape == sizes.shape == is_read.shape):
        raise ValueError("offsets, sizes, is_read must share a shape")
    if offsets.ndim != 1:
        raise ValueError("request arrays must be 1-D")
    M, N = params.n_hservers, params.n_sservers
    h = int(hstripe)
    if h < 0 or np.any(s_candidates < 0):
        raise ValueError("stripe sizes must be >= 0")
    round_sizes = M * h + N * s_candidates
    if np.any(round_sizes <= 0):
        raise ValueError("every candidate must satisfy M*h + N*s > 0")
    split = round_split(offsets, sizes, round_sizes[:, None])
    return _pair_costs(params, split, is_read, h, s_candidates)
