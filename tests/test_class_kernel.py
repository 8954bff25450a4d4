"""Exactness of the server-loop class kernel behind Algorithm 2's cost models.

:func:`repro.pfs.mapping.class_critical_params` replaced a dense
(candidates × requests × servers) evaluation of the round-robin closed form.
These tests keep a copy of that dense formula and require the kernel to
match it bit for bit: over 1-8 servers per class, zero-width classes,
requests spanning many rounds, request ends that fall exactly on round
or window boundaries, and round splits on either side of the int32 bound.
"""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core.cost_model import total_cost_vectorized
from repro.core.multiclass import MultiTierParameters, TierSpec, multiclass_total_cost
from repro.core.params import CostModelParameters
from repro.pfs.mapping import class_critical_params, round_split


def _dense_class_params(offsets, sizes, round_size, base, width, count):
    """The dense form: every server of the class as a trailing tensor axis."""
    n_cand, k = round_size.shape[0], offsets.shape[0]
    if count == 0:
        zeros = np.zeros((n_cand, k), dtype=np.int64)
        return zeros, zeros.copy()
    S3 = round_size[:, None, None]
    w = width[:, None, None]
    starts = base[:, None, None] + np.arange(count, dtype=np.int64)[None, None, :] * w

    def bytes_below(x):
        full, rem = np.divmod(x[None, :, None], S3)
        return full * w + np.clip(rem - starts, 0, w)

    per_server = bytes_below(offsets + sizes) - bytes_below(offsets)
    return per_server.max(axis=2), (per_server > 0).sum(axis=2)


def _kernel(offsets, sizes, round_size, base, width, count):
    split = round_split(offsets, sizes, round_size[:, None])
    return class_critical_params(*split, base[:, None], width[:, None], count)


@st.composite
def _layouts(draw):
    """Per-class server counts and a few candidate stripe vectors."""
    counts = draw(st.lists(st.integers(1, 8), min_size=1, max_size=3))
    n_cand = draw(st.integers(1, 4))
    stripe = st.one_of(st.just(0), st.integers(1, 48))
    rows = draw(
        st.lists(
            st.lists(stripe, min_size=len(counts), max_size=len(counts)),
            min_size=n_cand,
            max_size=n_cand,
        )
    )
    matrix = np.array(rows, dtype=np.int64)
    counts = np.array(counts, dtype=np.int64)
    assume(bool(np.all(matrix @ counts > 0)))
    return counts, matrix


@st.composite
def _requests(draw, counts, matrix):
    """Requests whose ends sit on round and window boundaries of candidate 0
    (give or take a byte), mixed with arbitrary ones; many span rounds."""
    S = int(matrix[0] @ counts)
    edges = np.concatenate([[0], np.cumsum(np.repeat(matrix[0], counts))]).tolist()
    point = st.one_of(
        st.builds(
            lambda q, edge, nudge: max(0, q * S + edge + nudge),
            st.integers(0, 12),
            st.sampled_from(edges),
            st.sampled_from([-1, 0, 0, 1]),
        ),
        st.integers(0, 40 * S),
    )
    pairs = draw(st.lists(st.tuples(point, point), min_size=1, max_size=24))
    offsets = np.array([min(a, b) for a, b in pairs], dtype=np.int64)
    sizes = np.array([abs(a - b) for a, b in pairs], dtype=np.int64)
    return offsets, sizes


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_matches_dense_formula(data):
    counts, matrix = data.draw(_layouts())
    offsets, sizes = data.draw(_requests(counts, matrix))
    round_size = matrix @ counts
    bases = np.zeros_like(matrix)
    np.cumsum(matrix[:, :-1] * counts[:-1], axis=1, out=bases[:, 1:])
    for i, count in enumerate(counts.tolist()):
        expected = _dense_class_params(offsets, sizes, round_size, bases[:, i], matrix[:, i], count)
        got = _kernel(offsets, sizes, round_size, bases[:, i], matrix[:, i], count)
        # Small rounds and requests narrow the split to int32; counts are
        # table indices.
        assert (got[0].dtype, got[1].dtype) == (np.int32, np.intp)
        for want, have in zip(expected, got):
            assert np.array_equal(want, have)


def test_scalar_class_geometry_and_empty_class():
    """Scalar base/width on 1-D requests; zero servers or zero width touch nothing."""
    offsets = np.array([0, 5, 17, 40, 96, 0], dtype=np.int64)
    sizes = np.array([8, 30, 1, 200, 0, 96], dtype=np.int64)
    round_size = np.array([48], dtype=np.int64)
    split = round_split(offsets, sizes, 48)
    largest, touched = class_critical_params(*split, 8, 8, 4)
    want = _dense_class_params(offsets, sizes, round_size, np.array([8]), np.array([8]), 4)
    assert np.array_equal(largest, want[0][0]) and np.array_equal(touched, want[1][0])
    for base, width, count in ((8, 8, 0), (8, 0, 4)):
        largest, touched = class_critical_params(*split, base, width, count)
        assert not largest.any() and not touched.any()


def test_wide_class_counts_past_a_byte():
    """More than 127 servers in one class still counts exactly."""
    counts = np.array([130, 2], dtype=np.int64)
    matrix = np.array([[3, 5], [1, 0]], dtype=np.int64)
    offsets = np.array([0, 7, 100, 391], dtype=np.int64)
    sizes = np.array([400, 1000, 3, 1], dtype=np.int64)
    round_size = matrix @ counts
    bases = np.column_stack([np.zeros(2, dtype=np.int64), matrix[:, 0] * 130])
    touched = []
    for i, count in enumerate(counts.tolist()):
        expected = _dense_class_params(offsets, sizes, round_size, bases[:, i], matrix[:, i], count)
        got = _kernel(offsets, sizes, round_size, bases[:, i], matrix[:, i], count)
        assert all(np.array_equal(a, b) for a, b in zip(expected, got))
        touched.append(int(got[1].max()))
    assert touched == [130, 2]


def test_dtype_follows_the_int32_bound():
    """The split narrows to int32 exactly when max(S) + max(size) < 2**31,
    and the kernel is exact on both sides, with sub-requests near the bound."""
    counts = np.array([3, 2], dtype=np.int64)
    sides = (([[1 << 26, 1 << 27], [1 << 24, 3 << 26]], 2**31 - 1), ([[1 << 26, 1 << 27]], 2**31))
    for matrix, top in sides:
        matrix = np.array(matrix, dtype=np.int64)
        round_size = matrix @ counts
        largest_size = top - int(round_size.max())
        offsets = np.array([0, 5, (1 << 32) + 7, 3 << 33], dtype=np.int64)
        sizes = np.array([largest_size, largest_size - 9, 1 << 26, largest_size], dtype=np.int64)
        split = round_split(offsets, sizes, round_size[:, None])
        assert {part.dtype for part in split} == {np.dtype(np.int32 if top < 2**31 else np.int64)}
        bases = np.column_stack([np.zeros(len(matrix), dtype=np.int64), matrix[:, 0] * 3])
        for i, count in enumerate(counts.tolist()):
            expected = _dense_class_params(
                offsets, sizes, round_size, bases[:, i], matrix[:, i], count
            )
            got = _kernel(offsets, sizes, round_size, bases[:, i], matrix[:, i], count)
            assert all(np.array_equal(a, b) for a, b in zip(expected, got))


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_two_class_and_k_class_costs_are_one_routine(hserver_profile, sserver_profile, data):
    """Both cost models return bit-equal sums for the same stripe pairs,
    including zero HServers and single-candidate calls."""
    n_h = data.draw(st.integers(0, 8))
    n_s = data.draw(st.integers(1, 4))
    h = data.draw(st.integers(0, 64)) * 512
    s_values = np.array(
        data.draw(st.lists(st.integers(1, 64), min_size=1, max_size=6)), dtype=np.int64
    ) * 512
    k = data.draw(st.integers(1, 40))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
    offsets = rng.integers(0, 4 << 20, k).astype(np.int64)
    sizes = rng.integers(1, 1 << 20, k).astype(np.int64)
    is_read = rng.random(k) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
    params = CostModelParameters(n_h, n_s, 2e-9, hserver_profile, sserver_profile)
    two = total_cost_vectorized(params, offsets, sizes, is_read, h, s_values)
    tiers = (TierSpec(n_s, sserver_profile),)
    matrix = s_values[:, None]
    if n_h:
        tiers = (TierSpec(n_h, hserver_profile), *tiers)
        matrix = np.column_stack([np.full_like(s_values, h), s_values])
    multi = multiclass_total_cost(
        MultiTierParameters(tiers, 2e-9), offsets, sizes, is_read, matrix
    )
    assert np.array_equal(two, multi)
