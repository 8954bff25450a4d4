"""Property-based tests (hypothesis) for the striping math invariants."""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.pfs.mapping import (
    StripingConfig,
    critical_params,
    critical_params_vectorized,
    decompose,
    decompose_batch_flat,
)
from repro.pfs.tiered import MultiClassStripingConfig

@st.composite
def _configs(draw):
    n_hservers = draw(st.integers(min_value=0, max_value=8))
    n_sservers = draw(st.integers(min_value=0, max_value=8))
    hstripe = draw(st.integers(min_value=0, max_value=64))
    sstripe = draw(st.integers(min_value=0, max_value=64))
    # Only construct distributable configs; the constructor rejects others.
    assume(n_hservers * hstripe + n_sservers * sstripe > 0)
    return StripingConfig(n_hservers, n_sservers, hstripe, sstripe)


configs = _configs()

offsets = st.integers(min_value=0, max_value=5000)
sizes = st.integers(min_value=0, max_value=5000)


@given(configs, offsets, sizes)
@settings(max_examples=300)
def test_decompose_conserves_bytes(config, offset, size):
    subs = decompose(config, offset, size)
    assert sum(s.size for s in subs) == size


@given(configs, offsets, sizes)
@settings(max_examples=300)
def test_decompose_matches_byte_walk(config, offset, size):
    """Every byte of the request must land on the server round-robin assigns it."""
    S = config.round_size
    expected = [0] * config.n_servers
    cursor = offset
    end = offset + size
    while cursor < end:
        rem = cursor % S
        for server in range(config.n_servers):
            a, b = config.server_window(server)
            if a <= rem < b:
                step = min(b - rem, end - cursor)
                expected[server] += step
                cursor += step
                break
    got = [0] * config.n_servers
    for sub in decompose(config, offset, size):
        got[sub.server_id] += sub.size
    assert got == expected


@given(configs, offsets, sizes)
@settings(max_examples=200)
def test_subrequest_physical_extents_disjoint_and_ordered(config, offset, size):
    """Physical extents of consecutive logical requests on one server abut or gap —
    within one request a server gets exactly one extent, with positive size."""
    subs = decompose(config, offset, size)
    seen = set()
    for sub in subs:
        assert sub.size > 0
        assert sub.offset >= 0
        assert sub.server_id not in seen
        seen.add(sub.server_id)


@given(configs, offsets, sizes)
@settings(max_examples=200)
def test_adjacent_requests_tile_server_extents(config, offset, size):
    """Splitting a request at any point yields abutting per-server extents."""
    if size < 2:
        return
    split = size // 2
    left = decompose(config, offset, split)
    right = decompose(config, offset + split, size - split)
    whole = {s.server_id: s for s in decompose(config, offset, size)}
    left_map = {s.server_id: s for s in left}
    right_map = {s.server_id: s for s in right}
    for server_id, sub in whole.items():
        l = left_map.get(server_id)
        r = right_map.get(server_id)
        pieces = sum(x.size for x in (l, r) if x is not None)
        assert pieces == sub.size
        if l is not None:
            assert l.offset == sub.offset
        if l is not None and r is not None:
            assert r.offset == l.offset + l.size
        elif r is not None:
            assert r.offset == sub.offset


@given(configs, offsets, sizes)
@settings(max_examples=200)
def test_critical_params_bounds(config, offset, size):
    crit = critical_params(config, offset, size)
    assert 0 <= crit.m <= config.n_hservers
    assert 0 <= crit.n <= config.n_sservers
    assert crit.s_m <= size and crit.s_n <= size
    if size > 0:
        assert crit.m + crit.n >= 1
        assert max(crit.s_m, crit.s_n) >= -(-size // max(1, crit.m + crit.n))


@given(
    configs,
    st.lists(st.tuples(offsets, sizes), min_size=1, max_size=30),
)
@settings(max_examples=150)
def test_vectorized_agrees_with_scalar(config, requests):
    off = np.array([o for o, _ in requests], dtype=np.int64)
    siz = np.array([s for _, s in requests], dtype=np.int64)
    s_m, s_n, m, n = critical_params_vectorized(config, off, siz)
    for i, (o, s) in enumerate(requests):
        crit = critical_params(config, o, s)
        assert (int(s_m[i]), int(s_n[i]), int(m[i]), int(n[i])) == (
            crit.s_m,
            crit.s_n,
            crit.m,
            crit.n,
        )


@given(configs, offsets, st.integers(min_value=1, max_value=5000))
@settings(max_examples=200)
def test_growing_request_monotone_bytes(config, offset, size):
    """Extending a request never shrinks any server's share."""
    small = {s.server_id: s.size for s in decompose(config, offset, size)}
    large = {s.server_id: s.size for s in decompose(config, offset, size + 64)}
    for server_id, bytes_small in small.items():
        assert large.get(server_id, 0) >= bytes_small


@st.composite
def _multiclass_configs(draw):
    classes = draw(
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=4), st.integers(min_value=0, max_value=48)),
            min_size=1,
            max_size=4,
        )
    )
    assume(sum(count * stripe for count, stripe in classes) > 0)
    return MultiClassStripingConfig(classes)


@given(
    st.one_of(configs, _multiclass_configs()),
    st.lists(st.tuples(offsets, sizes), max_size=30),
)
@settings(max_examples=200)
def test_flat_batch_matches_scalar_decompose(config, requests):
    """The batch columns are the scalar sub-requests of every piece, concatenated."""
    piece, server, sub_offset, sub_size = decompose_batch_flat(
        config,
        np.array([o for o, _ in requests], dtype=np.int64),
        np.array([s for _, s in requests], dtype=np.int64),
    )
    expected = [
        (index, sub.server_id, sub.offset, sub.size)
        for index, (o, s) in enumerate(requests)
        for sub in config.decompose(o, s)
    ]
    got = list(zip(piece.tolist(), server.tolist(), sub_offset.tolist(), sub_size.tolist()))
    assert got == expected
