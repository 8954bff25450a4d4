"""Unit tests for multi-class striping (repro.pfs.tiered)."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.pfs.mapping import StripingConfig, critical_params, decompose
from repro.pfs.tiered import (
    ClassStripe,
    MultiClassStripingConfig,
    TieredFixedLayout,
    config_from_dict,
)
from repro.util.units import KiB

THREE_TIER = MultiClassStripingConfig([(2, 128 * KiB), (2, 64 * KiB), (4, 16 * KiB)])
TWO_CLASS = StripingConfig(n_hservers=6, n_sservers=2, hstripe=36 * KiB, sstripe=148 * KiB)


class TestConfig:
    def test_round_size(self):
        assert THREE_TIER.round_size == 2 * 128 * KiB + 2 * 64 * KiB + 4 * 16 * KiB

    def test_class_counts_and_stripes(self):
        assert THREE_TIER.class_counts == (2, 2, 4)
        assert THREE_TIER.stripes == (128 * KiB, 64 * KiB, 16 * KiB)

    def test_windows_tile_round(self):
        cursor = 0
        for server in range(THREE_TIER.n_servers):
            a, b = THREE_TIER.server_window(server)
            assert a == cursor
            cursor = b
        assert cursor == THREE_TIER.round_size

    def test_class_of(self):
        assert THREE_TIER.class_of(0) == 0
        assert THREE_TIER.class_of(1) == 0
        assert THREE_TIER.class_of(2) == 1
        assert THREE_TIER.class_of(4) == 2
        assert THREE_TIER.class_of(7) == 2

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            THREE_TIER.server_window(8)
        with pytest.raises(IndexError):
            THREE_TIER.class_of(-1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            MultiClassStripingConfig([])
        with pytest.raises(ValueError, match="distributes no data"):
            MultiClassStripingConfig([(2, 0), (3, 0)])

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MultiClassStripingConfig([(-1, 64)])
        with pytest.raises(ValueError):
            MultiClassStripingConfig([(1, -64)])

    def test_describe(self):
        assert THREE_TIER.describe() == "128K/64K/16K"

    def test_equality_and_hash(self):
        again = MultiClassStripingConfig([(2, 128 * KiB), (2, 64 * KiB), (4, 16 * KiB)])
        assert THREE_TIER == again
        assert hash(THREE_TIER) == hash(again)
        assert THREE_TIER != MultiClassStripingConfig([(2, 128 * KiB)])


class TestDecompose:
    def test_two_class_embedding_matches_original(self):
        """A K=2 multi-class config must reproduce StripingConfig exactly."""
        embedded = MultiClassStripingConfig.from_two_class(TWO_CLASS)
        for offset in (0, 13, 100 * KiB, TWO_CLASS.round_size * 2 + 7):
            for size in (1, 64 * KiB, 512 * KiB, TWO_CLASS.round_size + 5):
                original = decompose(TWO_CLASS, offset, size)
                generalized = embedded.decompose(offset, size)
                assert original == generalized

    def test_conservation(self):
        for offset in (0, 5 * KiB, 300 * KiB):
            for size in (1, 100 * KiB, 2 * THREE_TIER.round_size + 17):
                subs = THREE_TIER.decompose(offset, size)
                assert sum(s.size for s in subs) == size

    def test_zero_stripe_class_gets_nothing(self):
        config = MultiClassStripingConfig([(2, 64 * KiB), (4, 0)])
        subs = config.decompose(0, 512 * KiB)
        assert all(config.class_of(s.server_id) == 0 for s in subs)

    def test_empty_request(self):
        assert THREE_TIER.decompose(0, 0) == []

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            THREE_TIER.decompose(-1, 10)


class TestCriticalParamsPerClass:
    def test_full_round(self):
        per_class = THREE_TIER.critical_params_per_class(0, THREE_TIER.round_size)
        assert per_class == [(128 * KiB, 2), (64 * KiB, 2), (16 * KiB, 4)]

    def test_matches_decompose(self):
        for offset, size in [(0, 100 * KiB), (37 * KiB, 700 * KiB)]:
            per_class = THREE_TIER.critical_params_per_class(offset, size)
            subs = THREE_TIER.decompose(offset, size)
            for class_index, (largest, touched) in enumerate(per_class):
                class_subs = [
                    s.size for s in subs if THREE_TIER.class_of(s.server_id) == class_index
                ]
                assert touched == len(class_subs)
                assert largest == (max(class_subs) if class_subs else 0)

    def test_two_class_agrees_with_critical_params(self):
        embedded = MultiClassStripingConfig.from_two_class(TWO_CLASS)
        for offset, size in [(0, 512 * KiB), (50 * KiB, 900 * KiB)]:
            per_class = embedded.critical_params_per_class(offset, size)
            original = critical_params(TWO_CLASS, offset, size)
            assert per_class == [(original.s_m, original.m), (original.s_n, original.n)]


class TestSerialization:
    def test_round_trip(self):
        restored = config_from_dict(THREE_TIER.to_dict())
        assert restored == THREE_TIER

    def test_two_class_round_trip(self):
        restored = config_from_dict(TWO_CLASS.to_dict())
        assert restored == TWO_CLASS

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            config_from_dict({"type": "alien"})


class TestTieredFixedLayout:
    def test_single_segment(self):
        layout = TieredFixedLayout(THREE_TIER)
        segments = layout.segments(10, 100)
        assert len(segments) == 1
        assert segments[0].config is THREE_TIER

    def test_describe(self):
        assert TieredFixedLayout(THREE_TIER).describe() == "128K/64K/16K"

    def test_empty(self):
        assert TieredFixedLayout(THREE_TIER).segments(0, 0) == []


@st.composite
def _tier_configs(draw):
    n_classes = draw(st.integers(min_value=1, max_value=4))
    classes = [
        (draw(st.integers(min_value=0, max_value=4)), draw(st.integers(min_value=0, max_value=48)))
        for _ in range(n_classes)
    ]
    assume(sum(count * stripe for count, stripe in classes) > 0)
    return MultiClassStripingConfig(classes)


@given(_tier_configs(), st.integers(0, 4000), st.integers(0, 4000))
@settings(max_examples=200)
def test_property_multiclass_conserves_bytes(config, offset, size):
    subs = config.decompose(offset, size)
    assert sum(s.size for s in subs) == size
    assert len({s.server_id for s in subs}) == len(subs)


@given(_tier_configs(), st.integers(0, 4000), st.integers(0, 4000))
@settings(max_examples=150)
def test_property_multiclass_matches_byte_walk(config, offset, size):
    S = config.round_size
    expected = [0] * config.n_servers
    cursor, end = offset, offset + size
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
    for sub in config.decompose(offset, size):
        got[sub.server_id] += sub.size
    assert got == expected
