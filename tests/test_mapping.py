"""Unit tests for the striping math (repro.pfs.mapping).

The brute-force oracle walks the request byte by stripe fragment and
assigns each fragment to its server by definition of round-robin striping;
all closed forms must agree with it.
"""

import numpy as np
import pytest

from repro.pfs.mapping import (
    CriticalParams,
    StripingConfig,
    critical_params,
    critical_params_vectorized,
    decompose,
    paper_case_a_params,
)
from repro.util.units import KiB


def brute_force_bytes_per_server(config: StripingConfig, offset: int, size: int) -> list[int]:
    """Walk every stripe fragment of [offset, offset+size) (slow oracle)."""
    S = config.round_size
    totals = [0] * config.n_servers
    cursor = offset
    end = offset + size
    while cursor < end:
        rem = cursor % S
        for server in range(config.n_servers):
            a, b = config.server_window(server)
            if a <= rem < b:
                step = min(b - rem, end - cursor)
                totals[server] += step
                cursor += step
                break
        else:
            raise AssertionError(f"in-round offset {rem} not covered by any window")
    return totals


DEFAULT = StripingConfig(n_hservers=6, n_sservers=2, hstripe=64 * KiB, sstripe=64 * KiB)
HYBRID = StripingConfig(n_hservers=6, n_sservers=2, hstripe=36 * KiB, sstripe=148 * KiB)
SSD_ONLY = StripingConfig(n_hservers=6, n_sservers=2, hstripe=0, sstripe=64 * KiB)


class TestStripingConfig:
    def test_round_size(self):
        assert DEFAULT.round_size == 8 * 64 * KiB
        assert HYBRID.round_size == 6 * 36 * KiB + 2 * 148 * KiB

    def test_windows_tile_the_round(self):
        for config in (DEFAULT, HYBRID, SSD_ONLY):
            cursor = 0
            for server in range(config.n_servers):
                a, b = config.server_window(server)
                assert a == cursor
                cursor = b
            assert cursor == config.round_size

    def test_window_out_of_range(self):
        with pytest.raises(IndexError):
            DEFAULT.server_window(8)
        with pytest.raises(IndexError):
            DEFAULT.server_window(-1)

    def test_is_hserver(self):
        assert DEFAULT.is_hserver(0) and DEFAULT.is_hserver(5)
        assert not DEFAULT.is_hserver(6)

    def test_rejects_empty_distribution(self):
        with pytest.raises(ValueError, match="distributes no data"):
            StripingConfig(n_hservers=2, n_sservers=2, hstripe=0, sstripe=0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            StripingConfig(n_hservers=-1, n_sservers=2, hstripe=1, sstripe=1)
        with pytest.raises(ValueError):
            StripingConfig(n_hservers=1, n_sservers=2, hstripe=-4, sstripe=4)

    def test_describe(self):
        assert DEFAULT.describe() == "64K"
        assert HYBRID.describe() == "36K-148K"


class TestDecompose:
    def test_empty_request(self):
        assert decompose(DEFAULT, 0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            decompose(DEFAULT, -1, 10)
        with pytest.raises(ValueError):
            decompose(DEFAULT, 0, -1)

    def test_single_stripe(self):
        subs = decompose(DEFAULT, 0, 64 * KiB)
        assert len(subs) == 1
        assert subs[0].server_id == 0
        assert subs[0].size == 64 * KiB
        assert subs[0].offset == 0

    def test_request_within_one_stripe(self):
        subs = decompose(DEFAULT, 10 * KiB, 20 * KiB)
        assert len(subs) == 1
        assert subs[0].size == 20 * KiB
        assert subs[0].offset == 10 * KiB

    def test_full_round_touches_all_servers(self):
        subs = decompose(DEFAULT, 0, DEFAULT.round_size)
        assert [s.server_id for s in subs] == list(range(8))
        assert all(s.size == 64 * KiB for s in subs)

    def test_conservation(self):
        for offset in (0, 13, 64 * KiB, 500 * KiB, 3 * DEFAULT.round_size + 7):
            for size in (1, 4 * KiB, 512 * KiB, 3 * DEFAULT.round_size):
                subs = decompose(HYBRID, offset, size)
                assert sum(s.size for s in subs) == size

    def test_matches_brute_force(self):
        for config in (DEFAULT, HYBRID, SSD_ONLY):
            for offset in (0, 1, 36 * KiB - 1, 200 * KiB, config.round_size * 2 + 17):
                for size in (1, 5 * KiB, 512 * KiB, config.round_size + 3):
                    expected = brute_force_bytes_per_server(config, offset, size)
                    got = [0] * config.n_servers
                    for sub in decompose(config, offset, size):
                        got[sub.server_id] += sub.size
                    assert got == expected, (config, offset, size)

    def test_multi_round_extents_are_contiguous(self):
        # 4 rounds' worth starting at 0: each server's physical extent must
        # be a single run of 4 stripes starting at its physical 0.
        subs = decompose(DEFAULT, 0, 4 * DEFAULT.round_size)
        for sub in subs:
            assert sub.offset == 0
            assert sub.size == 4 * 64 * KiB

    def test_physical_offsets_advance_per_round(self):
        # Second round's bytes land at physical offset = one stripe.
        subs = decompose(DEFAULT, DEFAULT.round_size, 64 * KiB)
        assert subs == [subs[0]]
        assert subs[0].server_id == 0
        assert subs[0].offset == 64 * KiB

    def test_ssd_only_layout_skips_hservers(self):
        subs = decompose(SSD_ONLY, 0, 512 * KiB)
        assert all(s.server_id >= 6 for s in subs)
        assert sum(s.size for s in subs) == 512 * KiB


class TestCriticalParams:
    def test_single_server(self):
        crit = critical_params(DEFAULT, 0, 32 * KiB)
        assert crit == CriticalParams(s_m=32 * KiB, s_n=0, m=1, n=0)

    def test_full_round(self):
        crit = critical_params(DEFAULT, 0, DEFAULT.round_size)
        assert crit == CriticalParams(s_m=64 * KiB, s_n=64 * KiB, m=6, n=2)

    def test_ssd_only(self):
        crit = critical_params(SSD_ONLY, 0, 512 * KiB)
        assert crit.m == 0 and crit.s_m == 0
        assert crit.n == 2
        assert crit.s_n == 256 * KiB

    def test_consistent_with_decompose(self):
        for offset in (0, 7 * KiB, 300 * KiB):
            for size in (KiB, 512 * KiB, 2 * HYBRID.round_size + 5):
                subs = decompose(HYBRID, offset, size)
                crit = critical_params(HYBRID, offset, size)
                h_sizes = [s.size for s in subs if HYBRID.is_hserver(s.server_id)]
                s_sizes = [s.size for s in subs if not HYBRID.is_hserver(s.server_id)]
                assert crit.m == len(h_sizes) and crit.n == len(s_sizes)
                assert crit.s_m == (max(h_sizes) if h_sizes else 0)
                assert crit.s_n == (max(s_sizes) if s_sizes else 0)


class TestVectorized:
    def test_matches_scalar(self):
        rng = np.random.default_rng(0)
        offsets = rng.integers(0, 64 * 1024 * 1024, 300).astype(np.int64)
        sizes = rng.integers(1, 2 * 1024 * 1024, 300).astype(np.int64)
        for config in (DEFAULT, HYBRID, SSD_ONLY):
            s_m, s_n, m, n = critical_params_vectorized(config, offsets, sizes)
            for i in range(len(offsets)):
                crit = critical_params(config, int(offsets[i]), int(sizes[i]))
                assert (s_m[i], s_n[i], m[i], n[i]) == (crit.s_m, crit.s_n, crit.m, crit.n)

    def test_zero_size_entries(self):
        s_m, s_n, m, n = critical_params_vectorized(
            DEFAULT, np.array([0, 100]), np.array([0, 0])
        )
        assert not s_m.any() and not s_n.any() and not m.any() and not n.any()

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            critical_params_vectorized(DEFAULT, np.array([0, 1]), np.array([1]))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            critical_params_vectorized(DEFAULT, np.array([-1]), np.array([1]))


class TestPaperCaseA:
    """Fig. 5's closed forms, on inputs where they are exact."""

    def test_within_single_stripe(self):
        # Δr = 0, Δc = 0.
        got = paper_case_a_params(DEFAULT, 10 * KiB, 20 * KiB)
        assert got == critical_params(DEFAULT, 10 * KiB, 20 * KiB)

    def test_two_adjacent_hservers(self):
        # Δr = 0, Δc = 1.
        offset, size = 32 * KiB, 64 * KiB
        got = paper_case_a_params(DEFAULT, offset, size)
        assert got == critical_params(DEFAULT, offset, size)

    def test_span_of_hserver_section(self):
        # Δr = 0, Δc > 1.
        offset, size = 16 * KiB, 200 * KiB
        got = paper_case_a_params(DEFAULT, offset, size)
        expected = critical_params(DEFAULT, offset, size)
        assert got.s_m == expected.s_m
        assert got.m == expected.m

    def test_multi_round_same_column(self):
        # Δr >= 1, Δc = 0: begins and ends on the same server index.
        S = DEFAULT.round_size
        offset = 16 * KiB
        size = 2 * S  # Ends at 16K into the same stripe two rounds later.
        got = paper_case_a_params(DEFAULT, offset, size)
        expected = critical_params(DEFAULT, offset, size)
        assert got == expected

    def test_rejects_non_case_a(self):
        # Request beginning on an SServer is case (c)/(d), not (a).
        with pytest.raises(ValueError):
            paper_case_a_params(DEFAULT, 6 * 64 * KiB, 32 * KiB)

    def test_rejects_h_zero(self):
        with pytest.raises(ValueError):
            paper_case_a_params(SSD_ONLY, 0, 64 * KiB)

    def test_multi_round_multi_column_undercounts(self):
        """Document Fig. 5's known under-count: middle columns get Δr+1 stripes.

        The paper's third Δr>=1 branch reports s_m = Δr·h, but a server
        strictly between the beginning and ending columns receives a stripe
        in both boundary rounds, i.e. (Δr+1)·h bytes.
        """
        S = DEFAULT.round_size
        offset = 16 * KiB  # Begins mid-stripe on server 0.
        size = S + 3 * 64 * KiB  # Ends mid-section on server 3 a round later.
        paper = paper_case_a_params(DEFAULT, offset, size)
        exact = critical_params(DEFAULT, offset, size)
        assert paper.s_m <= exact.s_m
        assert exact.s_m == 2 * 64 * KiB  # Middle servers carry 2 stripes.
