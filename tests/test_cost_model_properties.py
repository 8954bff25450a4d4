"""Property-based tests for the access cost model's invariants."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import request_cost, request_cost_breakdown, total_cost_vectorized
from repro.core.params import CostModelParameters
from repro.core.stripe_determination import determine_stripes, reference_determine_stripes
from repro.devices.profiles import DeviceProfile
from repro.util.units import KiB

HPROF = DeviceProfile(
    read_alpha_min=5e-5, read_alpha_max=1.5e-4,
    write_alpha_min=5e-5, write_alpha_max=1.5e-4,
    beta_read=2.1e-8, beta_write=2.1e-8, label="h",
)
SPROF = DeviceProfile(
    read_alpha_min=1e-5, read_alpha_max=4e-5,
    write_alpha_min=2e-5, write_alpha_max=6e-5,
    beta_read=1.6e-9, beta_write=3.2e-9, label="s",
)


@st.composite
def _params(draw):
    m = draw(st.integers(min_value=0, max_value=8))
    n = draw(st.integers(min_value=0, max_value=4))
    assume(m + n > 0)
    return CostModelParameters(
        n_hservers=m, n_sservers=n, unit_network_time=2e-9, hserver=HPROF, sserver=SPROF
    )


@st.composite
def _stripes(draw, params):
    h = draw(st.integers(min_value=0, max_value=64)) * 4 * KiB
    s = draw(st.integers(min_value=0, max_value=64)) * 4 * KiB
    assume(params.n_hservers * h + params.n_sservers * s > 0)
    return h, s


offsets = st.integers(min_value=0, max_value=2**26)
sizes = st.integers(min_value=1, max_value=2**22)
ops = st.sampled_from(["read", "write"])


@given(st.data())
@settings(max_examples=200)
def test_cost_positive_and_finite(data):
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    offset = data.draw(offsets)
    size = data.draw(sizes)
    op = data.draw(ops)
    cost = request_cost(params, op, offset, size, h, s)
    assert np.isfinite(cost)
    assert cost > 0


@given(st.data())
@settings(max_examples=150)
def test_breakdown_components_nonnegative(data):
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    breakdown = request_cost_breakdown(
        params, data.draw(ops), data.draw(offsets), data.draw(sizes), h, s
    )
    assert breakdown.network >= 0
    assert breakdown.startup >= 0
    assert breakdown.transfer > 0
    assert breakdown.total == pytest.approx(
        breakdown.network + breakdown.startup + breakdown.transfer
    )


@given(st.data())
@settings(max_examples=100)
def test_cost_monotone_in_size_same_offset(data):
    """Extending a request (same start) never lowers any cost phase except
    startup (touching more servers can only raise the expected max)."""
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    offset = data.draw(offsets)
    size = data.draw(st.integers(min_value=1, max_value=2**21))
    extra = data.draw(st.integers(min_value=1, max_value=2**21))
    op = data.draw(ops)
    small = request_cost_breakdown(params, op, offset, size, h, s)
    large = request_cost_breakdown(params, op, offset, size + extra, h, s)
    assert large.network >= small.network - 1e-15
    assert large.transfer >= small.transfer - 1e-15
    assert large.startup >= small.startup - 1e-15


@given(st.data())
@settings(max_examples=100)
def test_round_translation_invariance(data):
    """Shifting a request by whole striping rounds leaves its cost unchanged."""
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    S = params.n_hservers * h + params.n_sservers * s
    offset = data.draw(st.integers(min_value=0, max_value=2**22))
    size = data.draw(sizes)
    rounds = data.draw(st.integers(min_value=1, max_value=5))
    op = data.draw(ops)
    base = request_cost(params, op, offset, size, h, s)
    shifted = request_cost(params, op, offset + rounds * S, size, h, s)
    assert shifted == pytest.approx(base, rel=1e-12)


@given(st.data())
@settings(max_examples=60)
def test_vectorized_equals_scalar(data):
    params = data.draw(_params())
    h, s = data.draw(_stripes(params))
    assume(params.n_sservers == 0 or s > 0 or params.n_hservers * h > 0)
    n = data.draw(st.integers(min_value=1, max_value=12))
    offs = np.array([data.draw(offsets) for _ in range(n)], dtype=np.int64)
    szs = np.array([data.draw(sizes) for _ in range(n)], dtype=np.int64)
    is_read = np.array([data.draw(st.booleans()) for _ in range(n)])
    total = total_cost_vectorized(params, offs, szs, is_read, h, np.array([s]))[0]
    expected = sum(
        request_cost(params, "read" if r else "write", int(o), int(z), h, s)
        for o, z, r in zip(offs, szs, is_read)
    )
    assert total == pytest.approx(expected, rel=1e-10)


@given(st.data())
@settings(max_examples=100)
def test_write_never_cheaper_than_read_on_sservers(data):
    """With SServer-only placement, Eq. (8)'s write parameters dominate."""
    params = data.draw(_params())
    assume(params.n_sservers > 0)
    s = (data.draw(st.integers(min_value=1, max_value=64))) * 4 * KiB
    offset = data.draw(offsets)
    size = data.draw(sizes)
    read = request_cost(params, "read", offset, size, 0, s)
    write = request_cost(params, "write", offset, size, 0, s)
    assert write >= read - 1e-15


@st.composite
def _straddling_region(draw):
    """A region whose grid puts ``max round size + max request size`` on
    either side of ``2**31``: the cost kernel's int32/int64 dtype bound.

    Request sizes sit near ``2**31 / (M + N + 1)``, the grid step is an
    eighth of the largest request (a multiple of 4 KiB), and offsets reach
    past ``2**32``.
    """
    params = draw(_params())
    width = params.n_hservers + params.n_sservers + 1
    centre = 2**31 // width
    k = draw(st.integers(min_value=1, max_value=5))
    szs = np.array(
        [draw(st.integers(min_value=centre * 3 // 4, max_value=centre * 5 // 4)) for _ in range(k)],
        dtype=np.int64,
    )
    offs = np.array(
        [draw(st.integers(min_value=0, max_value=2**33)) for _ in range(k)], dtype=np.int64
    )
    step = max(4 * KiB, int(szs.max()) // 8 // (4 * KiB) * (4 * KiB))
    return params, offs, szs, step


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_vectorized_equals_scalar_across_the_int32_bound(data):
    """Every candidate's summed cost equals the scalar per-request sum."""
    params, offs, szs, step = data.draw(_straddling_region())
    is_read = np.array([data.draw(st.booleans()) for _ in range(offs.shape[0])])
    top = int(szs.max()) // step * step + step
    h = data.draw(st.integers(min_value=0, max_value=top // step)) * step
    s_candidates = np.arange(0 if h else step, top + 1, step, dtype=np.int64)
    if params.n_sservers == 0:
        assume(h > 0)
    if params.n_hservers == 0:
        s_candidates = s_candidates[s_candidates > 0]
    totals = total_cost_vectorized(params, offs, szs, is_read, h, s_candidates)
    for s, total in zip(s_candidates.tolist(), totals):
        expected = sum(
            request_cost(params, "read" if r else "write", int(o), int(z), h, s)
            for o, z, r in zip(offs, szs, is_read)
        )
        assert total == pytest.approx(expected, rel=1e-12)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_search_equals_reference_across_the_int32_bound(data):
    """The vectorized grid search returns the paper loop's choice and cost.

    One op per region: then both searches add the same per-request floats
    in the same order, so the costs, and hence the tie-breaks, are equal
    bit for bit. (A mixed region sums reads and writes separately.)
    """
    params, offs, szs, step = data.draw(_straddling_region())
    is_read = np.full(offs.shape[0], data.draw(st.booleans()))
    fast = determine_stripes(params, offs, szs, is_read, step=step)
    slow = reference_determine_stripes(params, offs, szs, is_read, step=step)
    assert (fast.hstripe, fast.sstripe, fast.cost) == (slow.hstripe, slow.sstripe, slow.cost)
