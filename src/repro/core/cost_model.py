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
  2's inner loop. It works on (candidates × requests) arrays and loops
  over each class's servers
  (:func:`repro.pfs.mapping.class_critical_params`), sharing one summing
  routine with :func:`repro.core.multiclass.multiclass_total_cost`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from repro.core.params import CostModelParameters
from repro.devices.base import OpType
from repro.devices.profiles import DeviceProfile
from repro.pfs.mapping import StripingConfig, class_critical_params, critical_params


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
    offsets: np.ndarray,
    sizes: np.ndarray,
    is_read: np.ndarray,
    stripe_matrix: np.ndarray,
) -> np.ndarray:
    """Summed request-batch cost for every row of a stripe matrix.

    ``classes`` lists (server count, profile) per class in round order;
    counts may be 0. ``stripe_matrix`` is ``(n_cand, K)`` with every row
    distributing some data. Both public cost routines reduce to this one.
    """
    n_cand = stripe_matrix.shape[0]
    if offsets.shape[0] == 0:
        return np.zeros(n_cand, dtype=np.float64)
    counts = np.array([count for count, _ in classes], dtype=np.int64)
    S = (stripe_matrix @ counts)[:, None]  # (n_cand, 1)
    # One divmod per request end, shared by every class: (n_cand, k).
    qx, rx = np.divmod(offsets, S)
    qy, ry = np.divmod(offsets + sizes, S)
    # Class window starts: prefix sums of count_i · stripe_i.
    bases = np.zeros_like(stripe_matrix)
    np.cumsum(stripe_matrix[:, :-1] * counts[:-1], axis=1, out=bases[:, 1:])
    per_class = [
        class_critical_params(
            qx, rx, qy, ry, bases[:, i : i + 1], stripe_matrix[:, i : i + 1], count
        )
        for i, (count, _) in enumerate(classes)
    ]
    network = per_class[0][0]
    for largest, _ in per_class[1:]:
        network = np.maximum(network, largest)
    network = network * unit_network_time

    total = np.zeros(n_cand, dtype=np.float64)
    for op in (OpType.READ, OpType.WRITE):
        mask = is_read if op is OpType.READ else ~is_read
        if not mask.any():
            continue
        # Every term is >= 0, so maxima started at 0 equal maxima over the
        # classes alone.
        startup = transfer = 0.0
        for (count, profile), (largest, touched) in zip(classes, per_class):
            # Eq. (3)/(4) tabulated over touched counts 0..K and looked up
            # per request; the table holds the per-request float expression.
            lo, hi = profile.alpha_bounds(op)
            c = np.arange(count + 1, dtype=np.float64)
            table = np.where(c > 0, lo + (c / (c + 1.0)) * (hi - lo), 0.0)
            startup = np.maximum(startup, table[touched])
            transfer = np.maximum(transfer, largest * profile.beta(op))
        # x[:, mask] is F-ordered, so the sum runs over requests one by one
        # per candidate; keep that operand (even for single-op batches) or
        # the pairwise order moves results by an ulp.
        total += (network + startup + transfer)[:, mask].sum(axis=1)
    return total


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
    if np.any(M * h + N * s_candidates <= 0):
        raise ValueError("every candidate must satisfy M*h + N*s > 0")
    stripe_matrix = np.column_stack([np.full_like(s_candidates, h), s_candidates])
    return _summed_cost(
        ((M, params.hserver), (N, params.sserver)),
        params.unit_network_time,
        offsets,
        sizes,
        is_read,
        stripe_matrix,
    )
