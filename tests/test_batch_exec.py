"""Batched fast path vs the general per-request path: bit-for-bit parity.

The arithmetic replay of :mod:`repro.pfs.batch_exec` promises *exact*
equivalence with spawning one DES process per request — not approximate,
not statistical: the same elapsed-time array, the same ``sim.now``, the
same per-resource busy-time floats, the same device RNG states, the same
metadata counters. These tests compare the two paths over the edge grids
the executor's case analysis worries about (h = 0, single server classes,
requests straddling striping rounds, empty batches, issue-time ties,
mixed ops) and check every fallback trigger routes to the general path.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.network.link import NetworkModel
from repro.pfs import columnar
from repro.pfs.batch import RequestBatch
from repro.pfs.batch_exec import fast_path_blocker
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout, HybridFixedLayout, RegionLevelLayout
from repro.pfs.mapping import StripingConfig
from repro.pfs.mds_cluster import MetadataCluster
from repro.core.rst import RegionStripeTable, RSTEntry
from repro.simulate.engine import Simulator
from repro.util.units import KiB

# ---------------------------------------------------------------------------
# Harness: run one batch on a fresh cluster and capture full observable state
# ---------------------------------------------------------------------------


def _run(
    layout,
    batch: RequestBatch,
    *,
    force_general: bool,
    n_h: int = 2,
    n_s: int = 1,
    tracing: bool = False,
    lookup_time: float | None = None,
):
    sim = Simulator()
    if tracing:
        from repro.obs.tracer import EventTracer

        sim.tracer = EventTracer()
    mds = None
    if lookup_time is not None:
        mds = MetadataCluster(1, lookup_latency=lookup_time, per_region_latency=lookup_time)
    pfs = HybridPFS.build(sim, n_h, n_s, seed=0, mds=mds)
    handle = pfs.create_file("f", layout)
    done = handle.request_batch(batch, force_general=force_general)
    sim.run(done)
    return {
        "elapsed": np.asarray(done.value, dtype=np.float64),
        "now": sim.now,
        "busy": {
            name: busy for name, busy in sorted(pfs.server_busy_times().items())
        },
        "nic_busy": [s.nic.monitor.busy_time for s in pfs.servers],
        "disk_granted": [s.disk.granted_count for s in pfs.servers],
        "nic_granted": [s.nic.granted_count for s in pfs.servers],
        "rng": [s.device.rng.bit_generator.state for s in pfs.servers],
        "bytes_served": [s.bytes_served for s in pfs.servers],
        "subreqs": [s.subrequests_served for s in pfs.servers],
        "lookups": pfs.mds.lookup_count,
        "bytes_read": handle.bytes_read,
        "bytes_written": handle.bytes_written,
        "stats": dict(pfs.batch_stats),
        "fallbacks": dict(pfs.batch_fallbacks),
    }


def _assert_parity(layout, batch, **kwargs):
    fast = _run(layout, batch, force_general=False, **kwargs)
    general = _run(layout, batch, force_general=True, **kwargs)
    assert fast["stats"]["fast_batches"] == 1, f"fell back: {fast['fallbacks']}"
    assert general["stats"]["general_batches"] == 1
    np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])
    assert fast["now"] == general["now"]  # exact float equality, no tolerance
    for key in (
        "busy",
        "nic_busy",
        "disk_granted",
        "nic_granted",
        "bytes_served",
        "subreqs",
        "lookups",
        "bytes_read",
        "bytes_written",
    ):
        assert fast[key] == general[key], key
    for fast_state, general_state in zip(fast["rng"], general["rng"]):
        assert fast_state == general_state
    return fast, general


def _random_batch(rng: np.random.Generator, n: int, *, timed: bool, mixed: bool):
    offsets = rng.integers(0, 4 * 1024 * 1024, size=n).astype(np.int64)
    sizes = rng.integers(1, 512 * KiB, size=n).astype(np.int64)
    is_read = rng.random(n) < 0.5 if mixed else np.zeros(n, dtype=bool)
    issue_times = None
    if timed:
        issue_times = np.round(rng.random(n) * 0.01, 5)
        issue_times[rng.random(n) < 0.3] = 0.0  # force zero-delay ties
    return RequestBatch(offsets=offsets, sizes=sizes, is_read=is_read, issue_times=issue_times)


THREE_REGION_RST = RegionStripeTable(
    [
        RSTEntry(
            region_id=0,
            offset=0,
            end=1024 * 1024,
            config=StripingConfig(n_hservers=2, n_sservers=1, hstripe=16 * KiB, sstripe=64 * KiB),
        ),
        RSTEntry(
            region_id=1,
            offset=1024 * 1024,
            end=2 * 1024 * 1024,
            config=StripingConfig(n_hservers=2, n_sservers=1, hstripe=0, sstripe=128 * KiB),
        ),
        RSTEntry(
            region_id=2,
            offset=2 * 1024 * 1024,
            end=None,
            config=StripingConfig(n_hservers=2, n_sservers=1, hstripe=64 * KiB, sstripe=64 * KiB),
        ),
    ]
)


# ---------------------------------------------------------------------------
# Parity across layouts and batch shapes
# ---------------------------------------------------------------------------


class TestFastGeneralParity:
    def test_fixed_layout_mixed_ops(self):
        batch = _random_batch(np.random.default_rng(1), 64, timed=False, mixed=True)
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_hybrid_layout_h_zero(self):
        """h = 0: SServers carry everything, HServers stay idle."""
        batch = _random_batch(np.random.default_rng(2), 48, timed=False, mixed=True)
        _assert_parity(HybridFixedLayout(2, 1, 0, 64 * KiB), batch)

    def test_hserver_only_cluster(self):
        batch = _random_batch(np.random.default_rng(3), 32, timed=False, mixed=False)
        _assert_parity(FixedLayout(3, 0, 64 * KiB), batch, n_h=3, n_s=0)

    def test_sserver_only_cluster(self):
        batch = _random_batch(np.random.default_rng(4), 32, timed=False, mixed=True)
        _assert_parity(FixedLayout(0, 3, 64 * KiB), batch, n_h=0, n_s=3)

    def test_round_straddling_requests(self):
        """Requests much larger than one striping round (M·h + N·s)."""
        batch = RequestBatch(
            offsets=np.array([0, 100_000, 3 * 192 * KiB - 7], dtype=np.int64),
            sizes=np.array([5 * 192 * KiB, 192 * KiB + 1, 2 * 192 * KiB], dtype=np.int64),
            is_read=np.array([False, True, False]),
        )
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_region_level_layout(self):
        batch = _random_batch(np.random.default_rng(5), 64, timed=False, mixed=True)
        _assert_parity(RegionLevelLayout(THREE_REGION_RST), batch)

    def test_issue_times_with_ties(self):
        batch = _random_batch(np.random.default_rng(6), 64, timed=True, mixed=True)
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_issue_times_all_equal_nonzero(self):
        rng = np.random.default_rng(7)
        batch = _random_batch(rng, 24, timed=False, mixed=True)
        batch = RequestBatch(
            offsets=batch.offsets,
            sizes=batch.sizes,
            is_read=batch.is_read,
            issue_times=np.full(len(batch), 0.005),
        )
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_empty_batch(self):
        batch = RequestBatch(offsets=[], sizes=[], is_read=[])
        fast, general = _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)
        assert fast["elapsed"].shape == (0,)
        assert fast["now"] == 0.0

    def test_single_one_byte_request(self):
        batch = RequestBatch(offsets=[0], sizes=[1], is_read=[True])
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch)

    def test_zero_cost_mds(self):
        batch = _random_batch(np.random.default_rng(8), 32, timed=False, mixed=True)
        _assert_parity(FixedLayout(2, 1, 64 * KiB), batch, lookup_time=0.0)

    def test_fast_path_matches_traced_general_run(self):
        """Tracing forces the general path; times must still match the fast path."""
        batch = _random_batch(np.random.default_rng(9), 48, timed=False, mixed=True)
        layout = FixedLayout(2, 1, 64 * KiB)
        fast = _run(layout, batch, force_general=False)
        traced = _run(layout, batch, force_general=False, tracing=True)
        assert fast["stats"]["fast_batches"] == 1
        assert traced["stats"]["general_batches"] == 1
        assert traced["fallbacks"] == {"tracing": 1}
        np.testing.assert_array_equal(fast["elapsed"], traced["elapsed"])
        assert fast["now"] == traced["now"]
        assert fast["busy"] == traced["busy"]

    def test_sequential_batches_on_one_simulator(self):
        """Back-to-back batches both stay fast; state carries over exactly."""
        rng = np.random.default_rng(10)
        first = _random_batch(rng, 24, timed=False, mixed=True)
        second = _random_batch(rng, 24, timed=False, mixed=True)

        def run(force_general):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
            sim.run(handle.request_batch(first, force_general=force_general))
            sim.run(handle.request_batch(second, force_general=force_general))
            return sim.now, pfs.server_busy_times(), dict(pfs.batch_stats)

        now_fast, busy_fast, stats_fast = run(False)
        now_general, busy_general, _ = run(True)
        assert stats_fast["fast_batches"] == 2
        assert now_fast == now_general
        assert busy_fast == busy_general


# ---------------------------------------------------------------------------
# Fallback matrix: every blocker routes to the general path, results intact
# ---------------------------------------------------------------------------


class _CustomNetwork(NetworkModel):
    """A network subclass: stateful models the replay cannot mirror."""


def _arm_retry(pfs, handle):
    from repro.faults.retry import RetryPolicy

    pfs.retry = RetryPolicy()


def _arm_hedge(pfs, handle):
    from repro.serving.hedging import HedgeScheduler

    handle.hedge = HedgeScheduler(pfs)


def _arm_server_map(pfs, handle):
    handle.relayout(FixedLayout(2, 1, 64 * KiB), server_map=(1, 0, 2))


def _arm_degraded_routing(pfs, handle):
    pfs.fail_server(0)


def _arm_rebuild_override(pfs, handle):
    # Copy 0 of config server 0's column in region 0 rebuilt onto server 1.
    pfs.placement.overrides[("f#g0", 0, 0, 0)] = 1


def _arm_write_quorum(pfs, handle):
    handle.relayout(FixedLayout(2, 1, 64 * KiB, replicas=2))
    pfs.write_quorum = 1


def _arm_poisoned_unit(pfs, handle):
    # A poisoned block outside anything the batch touches.
    pfs.enable_integrity()
    checks = pfs.servers[2].checksums
    far = 64 * pfs.EXTENT_SPACING
    checks.record_write(far, 4 * KiB)
    assert checks.poison_block(far // checks.block_size)


#: case -> (blocker reason, HybridPFS.build kwargs, arm(pfs, handle)).
_HOOK_CASES = {
    "retry": ("retry-policy", {}, _arm_retry),
    "hedge": ("hedged-reads", {}, _arm_hedge),
    "server-map": ("server-map", {}, _arm_server_map),
    "degraded-routing": ("degraded-routing", {}, _arm_degraded_routing),
    "rebuild-override": ("rebuild", {}, _arm_rebuild_override),
    "write-quorum": ("write-quorum", {}, _arm_write_quorum),
    "poisoned-unit": ("integrity-poisoned", {}, _arm_poisoned_unit),
    "custom-network": ("custom-network", {"network": _CustomNetwork()}, lambda pfs, h: None),
}


class TestFallbackMatrix:
    def _cluster(self, **build_kwargs):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 1, seed=0, **build_kwargs)
        handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
        return sim, pfs, handle

    BATCH = RequestBatch(offsets=[0, 256 * KiB], sizes=[64 * KiB, 64 * KiB], is_read=[False, True])

    def test_tracing_blocks(self):
        from repro.obs.tracer import EventTracer

        sim, pfs, handle = self._cluster()
        sim.tracer = EventTracer()
        assert fast_path_blocker(handle) == "tracing"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"tracing": 1}

    def test_busy_simulator_blocks(self):
        sim, pfs, handle = self._cluster()

        def idle():
            yield sim.timeout(10.0)

        sim.process(idle())
        assert fast_path_blocker(handle) == "simulator-busy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"simulator-busy": 1}

    def test_pending_zero_delay_events_block(self):
        """Events due now wait in the ready queue, not on the heap."""
        sim, pfs, handle = self._cluster()
        fired = []
        sim.event().succeed().add_callback(lambda _: fired.append(sim.now))
        assert not sim._heap
        assert fast_path_blocker(handle) == "simulator-busy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"simulator-busy": 1}
        assert fired == [0.0]

    def test_fault_injector_blocks(self):
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule, ServerCrash

        sim, pfs, handle = self._cluster()
        FaultInjector(sim, pfs, FaultSchedule([ServerCrash(time=100.0, server=0)])).install()
        # install() spawns timer processes, so the simulator is not quiescent.
        assert fast_path_blocker(handle) == "simulator-busy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"simulator-busy": 1}

    def test_retry_policy_blocks(self):
        from repro.faults.retry import RetryPolicy

        sim, pfs, handle = self._cluster()
        pfs.retry = RetryPolicy()
        assert fast_path_blocker(handle) == "retry-policy"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"retry-policy": 1}

    def test_scan_disk_scheduler_blocks(self):
        sim, pfs, handle = self._cluster(disk_scheduler="scan")
        assert fast_path_blocker(handle) == "disk-scheduler"
        sim.run(handle.request_batch(self.BATCH))
        assert pfs.batch_fallbacks == {"disk-scheduler": 1}

    @pytest.mark.parametrize("case", sorted(_HOOK_CASES))
    def test_request_hook_blocks_and_matches_forced_general(self, case):
        """Every request hook of ``_request_proc`` has its own blocker
        reason, and the fallen-back run equals the same run forced general."""
        reason, build_kwargs, arm = _HOOK_CASES[case]

        def run(force_general):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0, **build_kwargs)
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
            arm(pfs, handle)
            if not force_general:
                assert fast_path_blocker(handle) == reason
                assert fast_path_blocker(handle, self.BATCH) == reason
            done = handle.request_batch(self.BATCH, force_general=force_general)
            sim.run(done)
            return (
                np.asarray(done.value),
                sim.now,
                sorted(pfs.server_busy_times().items()),
                dict(pfs.batch_fallbacks),
            )

        auto = run(False)
        forced = run(True)
        assert auto[3] == {reason: 1}
        assert forced[3] == {"forced": 1}
        np.testing.assert_array_equal(auto[0], forced[0])
        assert auto[1:3] == forced[1:3]

    def test_failed_server_blocks(self):
        sim, pfs, handle = self._cluster()
        pfs.servers[0].mark_failed()
        assert fast_path_blocker(handle) == "failed-server"

    def test_eligible_cluster_has_no_blocker(self):
        _, _, handle = self._cluster()
        assert fast_path_blocker(handle) is None

    def test_faulted_run_matches_forced_general(self):
        """A fault-injected batched run equals the same run forced general."""
        from repro.faults.injector import FaultInjector
        from repro.faults.schedule import FaultSchedule, ServerCrash

        def run(force_general):
            sim = Simulator()
            pfs = HybridPFS.build(sim, 2, 1, seed=0)
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB))
            schedule = FaultSchedule([ServerCrash(time=1e9, server=0)])
            FaultInjector(sim, pfs, schedule).install()
            done = handle.request_batch(self.BATCH, force_general=force_general)
            sim.run(done)
            return np.asarray(done.value), sim.now

        auto_elapsed, auto_now = run(False)
        forced_elapsed, forced_now = run(True)
        np.testing.assert_array_equal(auto_elapsed, forced_elapsed)
        assert auto_now == forced_now


# ---------------------------------------------------------------------------
# Columnar tier: when it engages, when it hands off to the event heap
# ---------------------------------------------------------------------------


class TestColumnarTier:
    """The vectorized tier must engage on uniform batches — including with
    replication and integrity — and hand uneven ones to the event-heap tier
    with no general-path fallback either way."""

    def _aligned_batch(self, n=48, op_read=False):
        offsets = (np.arange(n, dtype=np.int64) * 128 * KiB) % (4 * 1024 * 1024)
        return RequestBatch(
            offsets=offsets,
            sizes=np.full(n, 64 * KiB, dtype=np.int64),
            is_read=np.full(n, op_read, dtype=bool),
        )

    def _run_pair(self, layout, batch, *, integrity=False, lookup=None, **build):
        def run(force_general):
            sim = Simulator()
            mds = None
            if lookup is not None:
                mds = MetadataCluster(1, lookup_latency=lookup, per_region_latency=0.0)
            pfs = HybridPFS.build(sim, 2, 1, seed=0, mds=mds, **build)
            if integrity:
                pfs.enable_integrity()
            handle = pfs.create_file("f", layout)
            done = handle.request_batch(batch, force_general=force_general)
            sim.run(done)
            return {
                "elapsed": np.asarray(done.value, dtype=np.float64),
                "now": sim.now,
                "busy": sorted(pfs.server_busy_times().items()),
                "nic_busy": [s.nic.monitor.busy_time for s in pfs.servers],
                "granted": [(s.nic.granted_count, s.disk.granted_count) for s in pfs.servers],
                "rng": [s.device.rng.bit_generator.state for s in pfs.servers],
                "device": [
                    (
                        getattr(s.device, "_head_position", None),
                        getattr(s.device, "_bytes_since_gc", None),
                    )
                    for s in pfs.servers
                ],
                "tags": [
                    None if s.checksums is None else dict(s.checksums._tags)
                    for s in pfs.servers
                ],
            }, dict(pfs.batch_stats), dict(pfs.batch_fallbacks)

        fast, fast_stats, fast_fallbacks = run(False)
        general, general_stats, _ = run(True)
        np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])
        del fast["elapsed"], general["elapsed"]
        assert fast == general
        assert fast_stats["fast_batches"] == 1
        assert fast_fallbacks == {}
        return fast_stats

    @pytest.mark.parametrize("op_read", [False, True])
    def test_uniform_batch_runs_columnar(self, op_read):
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB), self._aligned_batch(op_read=op_read)
        )
        assert stats["fast_columnar_batches"] == 1

    @pytest.mark.parametrize("op_read", [False, True])
    def test_columnar_with_replication_and_integrity(self, op_read):
        """Mirrored writes and CRC bookkeeping stay on the vectorized tier."""
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB, replicas=2),
            self._aligned_batch(op_read=op_read),
            integrity=True,
        )
        assert stats["fast_columnar_batches"] == 1

    def test_columnar_with_region_replicas(self):
        layout = RegionLevelLayout(
            RegionStripeTable(
                [
                    RSTEntry(
                        region_id=0,
                        offset=0,
                        end=1024 * 1024,
                        config=StripingConfig(2, 1, 64 * KiB, 64 * KiB),
                    ),
                    RSTEntry(
                        region_id=1,
                        offset=1024 * 1024,
                        end=None,
                        config=StripingConfig(2, 1, 64 * KiB, 64 * KiB),
                    ),
                ]
            ),
            replicas={0: 3},
        )
        stats = self._run_pair(layout, self._aligned_batch(), integrity=True)
        assert stats["fast_columnar_batches"] == 1

    @pytest.mark.parametrize("op_read", [False, True])
    def test_uneven_batch_runs_columnar(self, op_read):
        """Varying sub-request sizes on a multi-slot NIC (per-job transfer
        times) replay on the columnar tier's slot kernel."""
        rng = np.random.default_rng(3)
        batch = RequestBatch(
            offsets=rng.integers(0, 4 * 1024 * 1024, 48).astype(np.int64),
            sizes=rng.integers(1, 256 * KiB, 48).astype(np.int64),
            is_read=np.full(48, op_read, dtype=bool),
        )
        stats = self._run_pair(FixedLayout(2, 1, 64 * KiB), batch)
        assert stats["fast_columnar_batches"] == 1

    @pytest.mark.parametrize("window", [64 * KiB, 48 * KiB, 16 * KiB])
    def test_writes_reaching_a_whole_gc_window_run_columnar(self, window):
        """SSD writes of a GC window or more used to bail to the event heap;
        the device's batched stream folds the GC counter exactly instead."""
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB),
            self._aligned_batch(),
            ssd_kwargs={"gc_window": window, "gc_pause": 2.0e-4},
        )
        assert stats["fast_columnar_batches"] == 1

    @pytest.mark.parametrize("nic_parallelism", [2, 4, 8])
    @pytest.mark.parametrize("op_read", [False, True])
    def test_uneven_simultaneous_nic_departures(self, nic_parallelism, op_read):
        """A zero-cost MDS spawns the whole burst at t=0 and a dyadic network
        makes uneven transfers end on the same instants: simultaneous NIC
        departures regrant waiters, and writes reach the disk in departure
        order with ties kept in feed order."""
        rng = np.random.default_rng(nic_parallelism)
        n = 64
        batch = RequestBatch(
            offsets=np.arange(n, dtype=np.int64) * 64 * KiB,
            sizes=rng.choice([16, 32, 48, 64], n).astype(np.int64) * KiB,
            is_read=np.full(n, op_read, dtype=bool),
        )
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB),
            batch,
            network=NetworkModel(unit_time=2.0**-24, latency=2.0**-13),
            nic_parallelism=nic_parallelism,
            lookup=0.0,
        )
        assert stats["fast_columnar_batches"] == 1

    def test_feed_on_nic_departure_uses_event_heap_not_general(self):
        """A dyadic MDS lookup and network land sub-request spawns exactly on
        NIC departure instants of uneven transfers. That tie resolves by
        event sequence numbers, so the columnar tier bails — to the
        event-heap replay, never the general path."""
        n = 48
        batch = RequestBatch(
            offsets=np.arange(n, dtype=np.int64) * 192 * KiB,
            sizes=np.resize(np.array([16, 48, 32], dtype=np.int64) * KiB, n),
            is_read=np.zeros(n, dtype=bool),
        )
        stats = self._run_pair(
            FixedLayout(2, 1, 64 * KiB),
            batch,
            network=NetworkModel(unit_time=2.0**-27, latency=2.0**-13),
            lookup=2.0**-13,
        )
        assert stats["fast_columnar_batches"] == 0

    def test_mixed_op_batch_uses_event_heap(self):
        batch = self._aligned_batch()
        is_read = batch.is_read.copy()
        is_read[::2] = True
        batch = RequestBatch(offsets=batch.offsets, sizes=batch.sizes, is_read=is_read)
        stats = self._run_pair(FixedLayout(2, 1, 64 * KiB), batch)
        assert stats["fast_columnar_batches"] == 0


class TestColumnarFeedOrder:
    """Every feed that reaches a columnar kernel is non-decreasing.

    The capacity-1 fold, the slot kernel's queue-free prefix and the
    multi-slot kernels' sorted tie probe all rely on that order. Queue plans
    exit the MDS in entry order, fill and hit plans spawn in arrival order,
    replica mirrors follow their primaries, and reads feed the NIC from the
    disk's departures: each must still reach its kernel sorted.
    """

    @pytest.mark.parametrize("timed", [False, True])
    @pytest.mark.parametrize("op_read", [False, True])
    def test_kernel_feeds_are_non_decreasing(self, monkeypatch, op_read, timed):
        feeds, modes = [], []
        for name in ("_chain", "_fifo_const", "_fifo_slots"):

            def spy(feed, *args, _kernel=getattr(columnar, name), _name=name):
                feeds.append((_name, feed.copy()))
                return _kernel(feed, *args)

            monkeypatch.setattr(columnar, name, spy)
        replay = columnar.replay_columnar

        def spy_replay(pfs, handle, jobs, op_is_read, plan):
            modes.append(plan.mode)
            return replay(pfs, handle, jobs, op_is_read, plan)

        monkeypatch.setattr(columnar, "replay_columnar", spy_replay)

        rng = np.random.default_rng(5)
        n = 96
        batch = RequestBatch(
            offsets=rng.integers(0, 8 * 1024 * 1024, n).astype(np.int64),
            sizes=rng.integers(1, 256 * KiB, n).astype(np.int64),
            is_read=np.full(n, op_read, dtype=bool),
            issue_times=rng.random(n) * 1e-3 if timed else None,
        )
        for cache in (False, True):
            sim = Simulator()
            pfs = HybridPFS.build(
                sim,
                2,
                1,
                seed=0,
                mds=MetadataCluster(4, hop_latency=1e-5),
                mds_cache=cache,
                nic_parallelism=4,
            )
            handle = pfs.create_file("f", FixedLayout(2, 1, 64 * KiB, replicas=2))
            for _ in range(1 + cache):  # cached: a fill batch, then a hit batch
                done = handle.request_batch(batch)
                sim.run(done)
            assert pfs.batch_stats["fast_columnar_batches"] == 1 + cache, pfs.batch_fallbacks
        assert modes == ["queue", "fill", "hit"]
        assert {name for name, _ in feeds} == {"_chain", "_fifo_const", "_fifo_slots"}
        for name, feed in feeds:
            assert (feed[1:] >= feed[:-1]).all(), name


# ---------------------------------------------------------------------------
# K-class striping on the batch fast path
# ---------------------------------------------------------------------------


class TestTieredParity:
    """A 3-tier ``TieredFixedLayout`` replays on the fast path exactly as the
    general path serves it, including a tier whose stripe is 0."""

    @staticmethod
    def _run(config, batch, force_general):
        from repro.devices.hdd import HDDModel
        from repro.devices.ssd import SSDModel
        from repro.pfs.tiered import TieredFixedLayout, TieredPFS
        from repro.util.rng import derive_rng

        sim = Simulator()
        kinds = (SSDModel, SSDModel, HDDModel)
        pfs = TieredPFS.build(
            sim,
            [
                [kind(seed=derive_rng(0, "tier", t, i)) for i in range(count)]
                for t, (kind, count) in enumerate(zip(kinds, config.class_counts))
            ],
        )
        handle = pfs.create_file("f", TieredFixedLayout(config))
        done = handle.request_batch(batch, force_general=force_general)
        sim.run(done)
        return (
            np.asarray(done.value, dtype=np.float64),
            sim.now,
            sorted(pfs.server_busy_times().items()),
            [s.device.rng.bit_generator.state for s in pfs.servers],
            dict(pfs.batch_stats),
            dict(pfs.batch_fallbacks),
        )

    @pytest.mark.parametrize(
        "classes",
        [
            [(2, 32 * KiB), (1, 64 * KiB), (3, 16 * KiB)],
            [(2, 48 * KiB), (1, 0), (3, 16 * KiB)],
        ],
        ids=["three-tier", "zero-stripe-tier"],
    )
    @pytest.mark.parametrize("op_read", [False, True])
    def test_fast_matches_general(self, classes, op_read):
        from repro.pfs.tiered import MultiClassStripingConfig

        config = MultiClassStripingConfig(classes)
        rng = np.random.default_rng(7)
        n = 400
        batch = RequestBatch(
            offsets=rng.integers(0, 8 * 1024 * 1024, n).astype(np.int64),
            sizes=rng.integers(1, 512 * KiB, n).astype(np.int64),
            is_read=np.full(n, op_read, dtype=bool),
        )
        elapsed, now, busy, rng_states, stats, fallbacks = self._run(config, batch, False)
        g_elapsed, g_now, g_busy, g_rng_states, g_stats, _ = self._run(config, batch, True)
        assert stats["fast_columnar_batches"] == 1 and fallbacks == {}
        assert g_stats["general_batches"] == 1
        np.testing.assert_array_equal(elapsed, g_elapsed)
        assert now == g_now
        assert busy == g_busy
        assert rng_states == g_rng_states


# ---------------------------------------------------------------------------
# Batched runs through the parallel job fabric (--jobs N)
# ---------------------------------------------------------------------------


class TestBatchedJobs:
    def test_batched_runjob_parity_under_pool(self, tiny_testbed):
        from repro.experiments.parallel import RunJob, run_jobs
        from repro.workloads.ior import IORConfig, IORWorkload

        workload = IORWorkload(
            IORConfig(n_processes=4, request_size=64 * KiB, file_size=2 * 1024 * 1024)
        )
        jobs = [
            RunJob(
                testbed=tiny_testbed,
                workload=workload,
                layout=FixedLayout(2, 1, 64 * KiB),
                layout_name="fast",
                batched=True,
            ),
            RunJob(
                testbed=tiny_testbed,
                workload=workload,
                layout=FixedLayout(2, 1, 64 * KiB),
                layout_name="general",
                batched=True,
                force_general=True,
            ),
        ]
        serial = run_jobs(jobs)
        pooled = run_jobs(jobs, jobs=2)
        assert serial[0].makespan == serial[1].makespan
        for s, p in zip(serial, pooled):
            assert s.makespan == p.makespan
            assert s.server_busy == p.server_busy
