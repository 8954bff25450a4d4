"""Unit tests for the HybridPFS facade and file request fan-out."""

import pytest

from repro.devices.base import OpType
from repro.devices.hdd import HDDModel
from repro.network.link import NetworkModel
from repro.pfs.client import ClientRequest, PFSClient
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout, HybridFixedLayout
from repro.pfs.mds_cluster import MetadataCluster
from repro.pfs.server import FileServer
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB


class TestBuild:
    def test_server_counts_and_names(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 3, 2, seed=0)
        assert pfs.n_hservers == 3 and pfs.n_sservers == 2
        assert [s.name for s in pfs.servers] == [
            "hserver0", "hserver1", "hserver2", "sserver0", "sserver1",
        ]

    def test_device_types(self):
        from repro.devices.hdd import HDDModel
        from repro.devices.ssd import SSDModel

        pfs = HybridPFS.build(Simulator(), 2, 2, seed=0)
        assert all(isinstance(s.device, HDDModel) for s in pfs.hservers)
        assert all(isinstance(s.device, SSDModel) for s in pfs.sservers)

    def test_device_kwargs_forwarded(self):
        pfs = HybridPFS.build(Simulator(), 1, 1, seed=0, hdd_kwargs={"bandwidth": 12345678.0})
        assert pfs.hservers[0].device.bandwidth == 12345678.0

    def test_no_servers_rejected(self):
        with pytest.raises(ValueError):
            HybridPFS.build(Simulator(), 0, 0)

    def test_seeded_devices_independent(self):
        pfs = HybridPFS.build(Simulator(), 2, 0, seed=0)
        a = pfs.hservers[0].device.startup_time(OpType.READ, 0, 1)
        b = pfs.hservers[1].device.startup_time(OpType.READ, 0, 1)
        assert a != b


class TestFiles:
    def test_create_and_open(self):
        pfs = HybridPFS.build(Simulator(), 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        assert pfs.open_file("f") is handle

    def test_open_missing(self):
        pfs = HybridPFS.build(Simulator(), 2, 1, seed=0)
        with pytest.raises(FileNotFoundError):
            pfs.open_file("missing")

    def test_duplicate_create_rejected(self):
        pfs = HybridPFS.build(Simulator(), 2, 1, seed=0)
        pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        with pytest.raises(FileExistsError):
            pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))

    def test_layout_mismatch_rejected(self):
        pfs = HybridPFS.build(Simulator(), 2, 1, seed=0)
        with pytest.raises(ValueError, match="filesystem has"):
            pfs.create_file("f", FixedLayout(6, 2, 64 * KiB))


class TestRequests:
    def test_write_reaches_every_server(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        proc = handle.write(0, 192 * KiB)
        elapsed = sim.run(proc)
        assert elapsed > 0
        assert all(server.bytes_served == 64 * KiB for server in pfs.servers)

    def test_read_counts(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        sim.run(handle.read(0, 128 * KiB))
        assert handle.bytes_read == 128 * KiB
        assert handle.bytes_written == 0

    def test_completion_is_max_of_subrequests(self):
        """Request time tracks the slowest (HDD) sub-request, not the sum."""
        sim = Simulator()
        pfs = HybridPFS.build(sim, 1, 1, seed=0)
        handle = pfs.create_file("f", HybridFixedLayout(1, 1, 256 * KiB, 256 * KiB))
        elapsed = sim.run(handle.write(0, 512 * KiB))
        hdd_time = pfs.hservers[0].disk_busy_time
        assert elapsed >= hdd_time
        # Parallel fan-out: elapsed far below serializing both sub-requests
        # plus double network, which would happen if the request were serial.
        assert elapsed < 2 * hdd_time

    def test_mds_latency_on_critical_path(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 1, 1, seed=0, mds=MetadataCluster(1, lookup_latency=1.0))
        handle = pfs.create_file("f", FixedLayout(1, 1, 64 * KiB))
        elapsed = sim.run(handle.write(0, KiB))
        assert elapsed > 1.0

    def test_zero_size_request_completes(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 1, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(1, 1, 64 * KiB))
        elapsed = sim.run(handle.write(0, 0))
        assert elapsed >= 0


class TestExtentAllocation:
    def test_distinct_regions_get_distinct_bases(self):
        pfs = HybridPFS.build(Simulator(), 1, 1, seed=0)
        base0 = pfs._extent_base("f", 0, 0)
        base1 = pfs._extent_base("f", 1, 0)
        assert base0 != base1
        assert abs(base1 - base0) >= HybridPFS.EXTENT_SPACING

    def test_base_stable_across_calls(self):
        pfs = HybridPFS.build(Simulator(), 1, 1, seed=0)
        assert pfs._extent_base("f", 0, 0) == pfs._extent_base("f", 0, 0)

    def test_per_server_allocators_independent(self):
        pfs = HybridPFS.build(Simulator(), 2, 0, seed=0)
        assert pfs._extent_base("f", 0, 0) == pfs._extent_base("f", 0, 1) == 0


class TestStatistics:
    def test_server_busy_times_keys(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        sim.run(handle.write(0, 192 * KiB))
        busy = pfs.server_busy_times()
        assert set(busy) == {"hserver0", "hserver1", "sserver0"}
        assert all(value > 0 for value in busy.values())

    def test_hservers_busier_than_sservers_under_default_layout(self):
        """The Fig. 1(a) effect in miniature."""
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        procs = [handle.write(i * 192 * KiB, 192 * KiB) for i in range(16)]
        sim.run(sim.all_of(procs))
        busy = pfs.server_busy_times()
        assert busy["hserver0"] > 2 * busy["sserver0"]

    def test_reset_statistics(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 1, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(1, 1, 64 * KiB))
        sim.run(handle.write(0, 128 * KiB))
        pfs.reset_statistics()
        assert all(s.bytes_served == 0 for s in pfs.servers)
        assert all(s.disk_busy_time == 0 for s in pfs.servers)


class TestFileServer:
    def test_write_order_nic_then_disk(self):
        """For writes the NIC stage precedes the disk stage."""
        sim = Simulator()
        device = HDDModel(alpha_min=0, alpha_max=0, bandwidth=MiB, seed=0)
        network = NetworkModel(unit_time=1.0 / MiB, latency=0.0)
        server = FileServer(sim, device, network, name="s")
        sim.run(sim.process(server.serve("write", 0, MiB)))
        # Equal rates: total = nic (1s) + disk (1s).
        assert sim.now == pytest.approx(2.0)

    def test_zero_size_noop(self):
        sim = Simulator()
        server = FileServer(sim, HDDModel(seed=0), NetworkModel(), name="s")
        sim.run(sim.process(server.serve("read", 0, 0)))
        assert server.subrequests_served == 0

    def test_disk_serializes_concurrent_subrequests(self):
        sim = Simulator()
        device = HDDModel(alpha_min=0, alpha_max=0, bandwidth=MiB, seed=0)
        network = NetworkModel(unit_time=1e-12, latency=0.0)
        server = FileServer(sim, device, network, name="s", nic_parallelism=8)
        procs = [sim.process(server.serve("read", 0, MiB)) for _ in range(3)]
        sim.run(sim.all_of(procs))
        assert sim.now == pytest.approx(3.0, rel=1e-3)


class TestPFSClient:
    def test_sequential_replay_stats(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        client = PFSClient(sim)
        requests = [ClientRequest(OpType.WRITE, i * 192 * KiB, 192 * KiB) for i in range(4)]
        stats = sim.run(client.replay(handle, requests))
        assert len(stats.latencies) == 4
        assert stats.total_time == pytest.approx(sim.now)
        assert stats.max_latency >= stats.mean_latency

    def test_concurrent_replay_faster_than_sequential(self):
        def run(concurrent):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
            client = PFSClient(sim)
            requests = [
                ClientRequest(OpType.WRITE, i * 192 * KiB, 192 * KiB) for i in range(8)
            ]
            if concurrent:
                sim.run(client.replay_concurrent(handle, requests))
            else:
                sim.run(client.replay(handle, requests))
            return sim.now

        assert run(concurrent=True) < run(concurrent=False)
