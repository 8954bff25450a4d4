"""Unit tests for the non-uniform multi-region workload generator."""

import numpy as np
import pytest

from repro.devices.base import OpType
from repro.util.rng import derive_rng
from repro.util.units import KiB, MiB
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload
from repro.workloads.traces import TraceRecord, sort_trace


class TestRegionSpec:
    def test_slots(self):
        spec = RegionSpec(size=MiB, request_size=64 * KiB)
        assert spec.n_slots == 16
        assert spec.n_requests == 16

    def test_coverage_samples(self):
        spec = RegionSpec(size=MiB, request_size=64 * KiB, coverage=0.5)
        assert spec.n_requests == 8

    def test_indivisible_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            RegionSpec(size=MiB, request_size=100 * KiB)

    def test_invalid_coverage(self):
        with pytest.raises(ValueError):
            RegionSpec(size=MiB, request_size=64 * KiB, coverage=0)
        with pytest.raises(ValueError):
            RegionSpec(size=MiB, request_size=64 * KiB, coverage=1.5)


def paper_like_workload(**kwargs):
    defaults = dict(
        regions=[
            RegionSpec(size=2 * MiB, request_size=64 * KiB),
            RegionSpec(size=8 * MiB, request_size=1024 * KiB),
            RegionSpec(size=4 * MiB, request_size=256 * KiB),
        ],
        n_processes=4,
        op="write",
        seed=0,
    )
    defaults.update(kwargs)
    return SyntheticRegionWorkload(**defaults)


class TestSyntheticRegionWorkload:
    def test_file_size(self):
        assert paper_like_workload().file_size == 14 * MiB

    def test_region_bases_cumulative(self):
        assert paper_like_workload().region_bases() == [0, 2 * MiB, 10 * MiB]

    def test_total_bytes_full_coverage(self):
        assert paper_like_workload().total_bytes == 14 * MiB

    def test_requests_stay_inside_their_region(self):
        workload = paper_like_workload()
        bases = workload.region_bases()
        spans = [(base, base + region.size) for base, region in zip(bases, workload.regions)]
        sizes = {span: region.request_size for span, region in zip(spans, workload.regions)}
        for rank in range(workload.n_processes):
            for _, offset, size in workload.rank_requests(rank):
                owner = next(span for span in spans if span[0] <= offset < span[1])
                assert offset + size <= owner[1]
                assert size == sizes[owner]

    def test_all_ranks_cover_all_requests(self):
        workload = paper_like_workload()
        seen = set()
        for rank in range(workload.n_processes):
            for _, offset, size in workload.rank_requests(rank):
                seen.add((offset, size))
        expected = sum(region.n_requests for region in workload.regions)
        assert len(seen) == expected

    def test_deterministic(self):
        assert paper_like_workload().rank_requests(2) == paper_like_workload().rank_requests(2)

    def test_trace_sorted(self):
        trace = paper_like_workload().synthetic_trace()
        offsets = [r.offset for r in trace]
        assert offsets == sorted(offsets)

    def test_op_propagates(self):
        trace = paper_like_workload(op="read").synthetic_trace()
        assert {r.op for r in trace} == {OpType.READ}

    def test_validation(self):
        with pytest.raises(ValueError):
            SyntheticRegionWorkload(regions=[], n_processes=4)
        with pytest.raises(ValueError):
            paper_like_workload(n_processes=0)
        with pytest.raises(ValueError):
            paper_like_workload().rank_requests(99)

    def test_coverage_reduces_requests(self):
        full = paper_like_workload()
        half = paper_like_workload(
            regions=[RegionSpec(size=8 * MiB, request_size=64 * KiB, coverage=0.25)]
        )
        assert half.total_bytes < full.total_bytes


def _reference_rank_requests(workload, rank):
    """Per-rank stream built the slow way: every slot as a tuple, per rank."""
    slots = []
    for base, region in zip(workload.region_bases(), workload.regions):
        picks = np.linspace(0, region.n_slots - 1, region.n_requests)
        picks = np.unique(picks.round().astype(np.int64))
        slots.extend((int(base + slot * region.request_size), region.request_size) for slot in picks)
    mine = slots[rank :: workload.n_processes]
    order = derive_rng(workload.seed, "synthetic", rank).permutation(len(mine))
    return [(workload.op, mine[i][0], mine[i][1]) for i in order]


class TestSlotsBuiltOnce:
    """Sharing one slot list across ranks leaves every output unchanged."""

    @pytest.mark.parametrize("seed", [0, 1, 7])
    @pytest.mark.parametrize("op", ["write", "read"])
    def test_matches_per_rank_reference(self, seed, op):
        workload = paper_like_workload(
            regions=[
                RegionSpec(size=2 * MiB, request_size=64 * KiB, coverage=0.7),
                RegionSpec(size=8 * MiB, request_size=1024 * KiB),
                RegionSpec(size=12 * MiB, request_size=256 * KiB, coverage=0.3),
            ],
            n_processes=5,
            op=op,
            seed=seed,
        )
        streams = [_reference_rank_requests(workload, rank) for rank in range(5)]
        for rank, stream in enumerate(streams):
            got = workload.rank_requests(rank)
            assert got == stream
            assert all(type(offset) is int and type(size) is int for _, offset, size in got)
        records = sort_trace(
            TraceRecord(pid=1, rank=rank, fd=3, op=o, offset=offset, size=size, timestamp=0.0)
            for rank, stream in enumerate(streams)
            for o, offset, size in stream
        )
        assert workload.synthetic_trace() == records
        batch = workload.request_batch()
        flat = [(offset, size) for stream in streams for _, offset, size in stream]
        assert batch.offsets.tolist() == [offset for offset, _ in flat]
        assert batch.sizes.tolist() == [size for _, size in flat]
        assert batch.is_read.tolist() == [op == "read"] * len(flat)
