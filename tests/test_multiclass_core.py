"""Unit tests for the multi-tier cost model and coordinate-descent search."""

import numpy as np
import pytest

from repro.core.cost_model import request_cost, total_cost_vectorized
from repro.core.multiclass import (
    MultiTierChoice,
    MultiTierParameters,
    MultiTierPlanner,
    TierSpec,
    determine_stripes_multiclass,
    multiclass_request_cost,
    multiclass_total_cost,
)
from repro.core.stripe_determination import determine_stripes
from repro.devices.profiles import DeviceProfile
from repro.util.units import KiB
from repro.workloads.traces import TraceRecord


@pytest.fixture(scope="module")
def nvme_profile():
    return DeviceProfile(
        read_alpha_min=5e-6, read_alpha_max=2e-5,
        write_alpha_min=1e-5, write_alpha_max=3e-5,
        beta_read=5e-10, beta_write=8e-10, label="nvme",
    )


@pytest.fixture(scope="module")
def two_tier_params(hserver_profile, sserver_profile):
    """The 2-class architecture expressed as MultiTierParameters."""
    return MultiTierParameters(
        tiers=(TierSpec(6, hserver_profile), TierSpec(2, sserver_profile)),
        unit_network_time=2.0e-9,
    )


@pytest.fixture(scope="module")
def three_tier_params(hserver_profile, sserver_profile, nvme_profile):
    return MultiTierParameters(
        tiers=(TierSpec(2, nvme_profile), TierSpec(2, sserver_profile), TierSpec(4, hserver_profile)),
        unit_network_time=2.0e-9,
    )


def uniform(n, size, read=True):
    offsets = np.arange(n, dtype=np.int64) * size
    sizes = np.full(n, size, dtype=np.int64)
    return offsets, sizes, np.full(n, read, dtype=bool)


class TestValidation:
    def test_empty_tiers_rejected(self):
        with pytest.raises(ValueError):
            MultiTierParameters(tiers=(), unit_network_time=1e-9)

    def test_tier_count_positive(self, hserver_profile):
        with pytest.raises(ValueError):
            TierSpec(0, hserver_profile)

    def test_stripe_vector_length_checked(self, two_tier_params):
        with pytest.raises(ValueError, match="stripes"):
            multiclass_request_cost(two_tier_params, "read", 0, KiB, (64 * KiB,))


class TestCostAgainstTwoClass:
    """The K=2 instantiation must equal the paper's two-class Eq. (7)/(8)."""

    def test_scalar_costs_match(self, params, two_tier_params):
        for op in ("read", "write"):
            for offset, size in [(0, 512 * KiB), (100 * KiB, 300 * KiB), (7, 1)]:
                for h, s in [(64 * KiB, 64 * KiB), (36 * KiB, 148 * KiB), (0, 64 * KiB)]:
                    expected = request_cost(params, op, offset, size, h, s)
                    got = multiclass_request_cost(two_tier_params, op, offset, size, (h, s))
                    assert got == pytest.approx(expected, rel=1e-12), (op, offset, size, h, s)

    def test_vectorized_costs_match(self, params, two_tier_params):
        rng = np.random.default_rng(5)
        offsets = rng.integers(0, 8 * 1024 * KiB, 40).astype(np.int64)
        sizes = rng.integers(KiB, 1024 * KiB, 40).astype(np.int64)
        is_read = rng.random(40) < 0.5
        s_values = np.array([32 * KiB, 160 * KiB], dtype=np.int64)
        expected = total_cost_vectorized(params, offsets, sizes, is_read, 16 * KiB, s_values)
        matrix = np.column_stack([np.full(2, 16 * KiB, dtype=np.int64), s_values])
        got = multiclass_total_cost(two_tier_params, offsets, sizes, is_read, matrix)
        assert np.array_equal(got, expected)

    def test_vectorized_matches_scalar_three_tier(self, three_tier_params):
        rng = np.random.default_rng(6)
        offsets = rng.integers(0, 4 * 1024 * KiB, 25).astype(np.int64)
        sizes = rng.integers(KiB, 512 * KiB, 25).astype(np.int64)
        is_read = rng.random(25) < 0.5
        stripes = (96 * KiB, 48 * KiB, 16 * KiB)
        total = multiclass_total_cost(
            three_tier_params, offsets, sizes, is_read, np.array([stripes], dtype=np.int64)
        )[0]
        expected = sum(
            multiclass_request_cost(
                three_tier_params,
                "read" if is_read[i] else "write",
                int(offsets[i]),
                int(sizes[i]),
                stripes,
            )
            for i in range(25)
        )
        assert total == pytest.approx(expected, rel=1e-12)


class TestCoordinateDescent:
    def test_two_class_matches_exhaustive(self, params, two_tier_params):
        """On K=2 the descent must reach the exhaustive Algorithm 2 cost."""
        offsets, sizes, is_read = uniform(24, 512 * KiB, read=False)
        exhaustive = determine_stripes(params, offsets, sizes, is_read, step=32 * KiB)
        descent = determine_stripes_multiclass(
            two_tier_params, offsets, sizes, is_read, step=32 * KiB
        )
        # Coordinate descent may stop in a local optimum; on this convex-ish
        # landscape it reaches the global one.
        assert descent.cost == pytest.approx(exhaustive.cost, rel=0.02)

    def test_fastest_tier_gets_largest_stripe(self, three_tier_params):
        offsets, sizes, is_read = uniform(32, 512 * KiB)
        choice = determine_stripes_multiclass(three_tier_params, offsets, sizes, is_read)
        nvme, sata, hdd = choice.stripes
        assert nvme >= sata >= hdd

    def test_cost_positive_and_describe(self, three_tier_params):
        offsets, sizes, is_read = uniform(8, 256 * KiB)
        choice = determine_stripes_multiclass(three_tier_params, offsets, sizes, is_read)
        assert choice.cost > 0
        assert choice.describe().startswith("{") and choice.describe().count(",") == 2

    def test_empty_region_rejected(self, three_tier_params):
        with pytest.raises(ValueError, match="empty region"):
            determine_stripes_multiclass(
                three_tier_params,
                np.array([], dtype=np.int64),
                np.array([], dtype=np.int64),
                np.array([], dtype=bool),
            )

    def test_sampling_stable(self, three_tier_params):
        offsets, sizes, is_read = uniform(500, 512 * KiB)
        full = determine_stripes_multiclass(
            three_tier_params, offsets, sizes, is_read, max_requests=500
        )
        sampled = determine_stripes_multiclass(
            three_tier_params, offsets, sizes, is_read, max_requests=64
        )
        assert sampled.stripes == full.stripes

    def test_offsets_rebased(self, three_tier_params):
        offsets, sizes, is_read = uniform(16, 256 * KiB)
        origin = determine_stripes_multiclass(three_tier_params, offsets, sizes, is_read)
        shifted = determine_stripes_multiclass(
            three_tier_params, offsets + 10**10, sizes, is_read
        )
        assert origin.stripes == shifted.stripes


class TestMultiTierPlanner:
    def make_trace(self, segments):
        records = []
        cursor = 0
        for n, size in segments:
            for _ in range(n):
                records.append(
                    TraceRecord(pid=1, rank=0, fd=3, op="write", offset=cursor, size=size, timestamp=0.0)
                )
                cursor += size
        return records

    def test_single_region(self, three_tier_params):
        rst = MultiTierPlanner(three_tier_params).plan(self.make_trace([(64, 512 * KiB)]))
        assert len(rst) == 1
        assert rst.entries[0].config.class_counts == (2, 2, 4)

    def test_two_phase_trace(self, three_tier_params):
        planner = MultiTierPlanner(three_tier_params)
        rst = planner.plan(self.make_trace([(64, 64 * KiB), (64, 1024 * KiB)]))
        assert len(rst) >= 2
        stripe_sets = {entry.config.stripes for entry in rst.entries}
        assert len(stripe_sets) >= 2

    def test_empty_trace_rejected(self, three_tier_params):
        with pytest.raises(ValueError):
            MultiTierPlanner(three_tier_params).plan([])

    def test_json_round_trip(self, three_tier_params):
        from repro.core.rst import RegionStripeTable

        rst = MultiTierPlanner(three_tier_params).plan(self.make_trace([(32, 512 * KiB)]))
        restored = RegionStripeTable.from_json(rst.to_json())
        assert [e.config.stripes for e in restored.entries] == [
            e.config.stripes for e in rst.entries
        ]
