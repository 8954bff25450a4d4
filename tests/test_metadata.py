"""Unit tests for the metadata server model."""

import pytest

from repro.core.rst import RegionStripeTable, RSTEntry
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout, RegionLevelLayout
from repro.pfs.mapping import StripingConfig
from repro.pfs.mds_cluster import MetadataCluster
from repro.pfs.metadata import MetadataServer
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB


class TestNamespace:
    def test_register_lookup(self):
        mds = MetadataServer()
        layout = FixedLayout(2, 1, 64 * KiB)
        mds.register("f", layout)
        assert mds.lookup("f") is layout
        assert "f" in mds
        assert mds.files() == ["f"]

    def test_duplicate_rejected(self):
        mds = MetadataServer()
        mds.register("f", FixedLayout(2, 1, 64 * KiB))
        with pytest.raises(FileExistsError):
            mds.register("f", FixedLayout(2, 1, 64 * KiB))

    def test_unregister(self):
        mds = MetadataServer()
        mds.register("f", FixedLayout(2, 1, 64 * KiB))
        mds.unregister("f")
        assert "f" not in mds
        with pytest.raises(FileNotFoundError):
            mds.unregister("f")

    def test_missing_lookup(self):
        with pytest.raises(FileNotFoundError):
            MetadataServer().lookup("ghost")


class TestLookupCost:
    def test_single_region_pays_base_only(self):
        mds = MetadataServer(lookup_latency=1e-5, per_region_latency=1e-6)
        assert mds.lookup_time(1) == pytest.approx(1e-5)

    def test_cost_grows_logarithmically(self):
        mds = MetadataServer(lookup_latency=1e-5, per_region_latency=1e-6)
        assert mds.lookup_time(2) == pytest.approx(1e-5 + 1e-6)
        assert mds.lookup_time(1024) == pytest.approx(1e-5 + 10e-6)
        assert mds.lookup_time(1025) == pytest.approx(1e-5 + 11e-6)

    def test_invalid_region_count(self):
        with pytest.raises(ValueError):
            MetadataServer().lookup_time(0)

    def test_validation(self):
        with pytest.raises(ValueError):
            MetadataServer(lookup_latency=-1)
        with pytest.raises(ValueError):
            MetadataServer(parallelism=0)

    def test_consult_requires_attachment(self):
        mds = MetadataCluster(1)
        with pytest.raises(RuntimeError, match="not attached"):
            list(mds.consult(FixedLayout(2, 1, 64 * KiB)))


class TestConsultInSimulation:
    def make_region_layout(self, n_regions):
        entries = []
        chunk = 1 * MiB
        for i in range(n_regions):
            entries.append(
                RSTEntry(
                    i,
                    i * chunk,
                    (i + 1) * chunk if i + 1 < n_regions else None,
                    StripingConfig(2, 1, 64 * KiB, 64 * KiB),
                )
            )
        return RegionLevelLayout(RegionStripeTable(entries))

    def test_region_count_drives_cost(self):
        def run(layout):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            handle = pfs.create_file("f", layout)
            return sim.run(handle.write(0, 64 * KiB))

        flat = run(FixedLayout(2, 1, 64 * KiB))
        fragmented = run(self.make_region_layout(256))
        assert fragmented > flat

    def test_mds_contention_serializes_lookups(self):
        sim = Simulator()
        mds = MetadataCluster(1, lookup_latency=1e-3, per_region_latency=0, parallelism=1)
        pfs = HybridPFS.build(sim, 2, 1, seed=0, mds=mds)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        procs = [handle.write(i * 64 * KiB, 64 * KiB) for i in range(8)]
        sim.run(sim.all_of(procs))
        # 8 lookups at 1 ms through a capacity-1 MDS: >= 8 ms of wall time.
        assert sim.now >= 8e-3
        assert mds.utilization_seconds >= 8e-3 * 0.99

    def test_lookup_count_increments_per_request(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        before = pfs.mds.lookup_count
        sim.run(handle.write(0, 64 * KiB))
        assert pfs.mds.lookup_count == before + 1
