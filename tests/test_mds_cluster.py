"""Sharded metadata cluster: ring routing, failover, parity, determinism.

Covers the DESIGN §14 contracts:

- consistent-hash ring ownership is deterministic and join/leave only
  moves the affected arc;
- finger-table routing reaches the same owner as the linear walk in no
  more hops;
- every testbed builds a cluster (one shard by default; the golden
  parity of that default lives in ``test_mds_golden.py``), and
  ``mds_shards=0`` is rejected;
- crashing a shard mid-run with recovery enabled loses zero namespace
  entries and replays identically, serial or under ``--jobs N``;
- degraded mode (no recovery) surfaces typed ``MetadataUnavailable``
  outcomes instead of tracebacks;
- the batched fast path replays sharded-cluster lookups (ring walk, entry
  rotation, owner-shard queueing) bit-identically to the general path —
  the blanket ``mds-cluster`` fallback is gone — and still falls back once
  the ring degrades.
"""

import pytest

from repro.experiments.harness import Testbed, run_workload
from repro.experiments.parallel import RunJob, run_jobs
from repro.faults import RetryPolicy, parse_faults
from repro.pfs.layout import FixedLayout
from repro.pfs.mds_cluster import (
    ROUTING_MODES,
    HashRing,
    MetadataCluster,
    MetadataUnavailable,
    ring_position,
)
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB

LAYOUT = FixedLayout(2, 2, 64 * KiB)
NAMES = [f"file{i:03d}.dat" for i in range(40)]


def _testbed(**kwargs):
    return Testbed(n_hservers=2, n_sservers=2, seed=0, **kwargs)


def _ior(processes=4, file_size=4 * MiB):
    from repro.workloads.ior import IORConfig, IORWorkload

    return IORWorkload(
        IORConfig(n_processes=processes, request_size=64 * KiB, file_size=file_size)
    )


class TestHashRing:
    def test_positions_are_deterministic(self):
        assert ring_position("alpha") == ring_position("alpha")
        assert ring_position("alpha") != ring_position("beta")

    def test_owner_stable_across_instances(self):
        a, b = HashRing(range(8)), HashRing(range(8))
        for name in NAMES:
            assert a.owner_of(name) == b.owner_of(name)

    def test_join_moves_only_the_new_arc(self):
        ring = HashRing(range(4))
        before = {name: ring.owner_of(name) for name in NAMES}
        ring.join(4)
        for name in NAMES:
            owner = ring.owner_of(name)
            assert owner == before[name] or owner == 4

    def test_leave_reassigns_only_the_departed_arc(self):
        ring = HashRing(range(4))
        before = {name: ring.owner_of(name) for name in NAMES}
        victim = ring.owner_of(NAMES[0])
        successor = ring.successor(victim)
        ring.leave(victim)
        for name in NAMES:
            if before[name] == victim:
                assert ring.owner_of(name) == successor
            else:
                assert ring.owner_of(name) == before[name]

    @pytest.mark.parametrize("n", [1, 2, 5, 8, 16])
    def test_finger_and_linear_agree_on_the_owner(self, n):
        ring = HashRing(range(n))
        for name in NAMES:
            for entry in range(n):
                linear_hops, linear_owner = ring.route(entry, name, "linear")
                finger_hops, finger_owner = ring.route(entry, name, "finger")
                assert linear_owner == finger_owner == ring.owner_of(name)
                assert finger_hops <= linear_hops

    def test_finger_hops_are_logarithmic(self):
        n = 16
        ring = HashRing(range(n))
        worst = max(
            ring.route(entry, name, "finger")[0]
            for name in NAMES
            for entry in range(n)
        )
        linear_worst = max(
            ring.route(entry, name, "linear")[0]
            for name in NAMES
            for entry in range(n)
        )
        assert worst <= 8  # 2*log2(16): Chord's O(log N) bound with slack
        assert linear_worst > worst  # the linear walk pays O(N)

    def test_unknown_routing_mode_rejected(self):
        ring = HashRing(range(2))
        with pytest.raises(ValueError, match="routing"):
            ring.route(0, "x", "warp")
        assert set(ROUTING_MODES) == {"finger", "linear"}


class TestParityWhenOff:
    def test_default_testbed_is_one_shard_cluster(self):
        result = run_workload(_testbed(), _ior(), LAYOUT, layout_name="64K")
        assert result.mds.n_shards == 1
        assert result.mds.lookups == result.mds.shard_lookups[0] > 0
        assert result.mds.hops_total == 0

    def test_zero_shards_rejected(self):
        with pytest.raises(ValueError, match="mds_shards"):
            _testbed(mds_shards=0)

    def test_multi_shard_run_spreads_no_hops_for_one_file(self):
        # One shared file hashes to one arc: every lookup lands on its
        # owner, and only that shard's counter moves.
        result = run_workload(_testbed(mds_shards=4), _ior(), LAYOUT)
        assert result.mds.lookups == sum(result.mds.shard_lookups)
        assert sum(1 for count in result.mds.shard_lookups if count) == 1


class TestClusterNamespace:
    def _cluster(self, n=4):
        cluster = MetadataCluster(n, seed=0)
        for name in NAMES:
            cluster.register(name, LAYOUT)
        return cluster

    def test_facade_routes_to_owner_shards(self):
        cluster = self._cluster()
        owners = {cluster.shard_of(name) for name in NAMES}
        assert len(owners) > 1  # 40 names spread over multiple arcs
        for name in NAMES:
            assert name in cluster
            assert cluster.lookup(name) is LAYOUT
        assert cluster.files() == sorted(NAMES)

    def test_crash_then_recover_preserves_namespace(self):
        cluster = self._cluster()
        before = cluster.namespace_state()
        victim = cluster.shard_of(NAMES[0])
        assert cluster.crash_shard(victim)
        successor = cluster.recover_shard(victim)
        assert successor is not None
        assert cluster.namespace_state() == before
        assert cluster.verify_namespace({name: 0 for name in NAMES}) == 0
        assert cluster.health.recoveries == 1

    def test_crash_without_recovery_raises_typed_errors(self):
        cluster = self._cluster()
        victim = cluster.shard_of(NAMES[0])
        cluster.crash_shard(victim)
        with pytest.raises(MetadataUnavailable) as info:
            cluster.lookup(NAMES[0])
        assert info.value.shard == victim
        with pytest.raises(MetadataUnavailable):
            cluster.generation_of(NAMES[0])
        assert cluster.verify_namespace({name: 0 for name in NAMES}) > 0

    def test_recover_shard_is_idempotent(self):
        cluster = self._cluster()
        victim = cluster.shard_of(NAMES[0])
        cluster.crash_shard(victim)
        first = cluster.recover_shard(victim)
        assert cluster.recover_shard(victim) == first
        assert cluster.health.recoveries == 1

    def test_crashing_a_dead_shard_is_a_noop(self):
        cluster = self._cluster()
        cluster.crash_shard(0)
        assert cluster.crash_shard(0) is False

    def test_graceful_remove_hands_off_everything(self):
        cluster = self._cluster()
        before = cluster.namespace_state()
        leaver = cluster.shard_of(NAMES[0])
        cluster.remove_shard(leaver)
        assert cluster.namespace_state() == before
        assert cluster.shard_of(NAMES[0]) != leaver

    def test_join_splits_an_arc_and_keeps_every_entry(self):
        cluster = self._cluster(2)
        before = cluster.namespace_state()
        new_id = cluster.add_shard()
        assert cluster.namespace_state() == before
        moved = [name for name in NAMES if cluster.shard_of(name) == new_id]
        # Every moved entry must be served by the new shard directly.
        for name in moved:
            assert cluster.lookup(name) is LAYOUT

    def test_chained_recovery_survives_a_second_crash(self):
        # Crash A -> B absorbs; crash B -> C must still serve A's entries,
        # which requires adopt() to journal at the real generation.
        cluster = self._cluster()
        first = cluster.shard_of(NAMES[0])
        cluster.crash_shard(first)
        second = cluster.recover_shard(first)
        cluster.crash_shard(second)
        third = cluster.recover_shard(second)
        assert third is not None
        assert cluster.verify_namespace({name: 0 for name in NAMES}) == 0


class TestCrashMidRunDeterminism:
    FAULTS = "mds-crash:{shard}@0.01"

    def _run(self, recovery=2.0e-3, shards=4):
        testbed = _testbed(mds_shards=shards, mds_recovery_delay=recovery)
        workload = _ior()
        # The single shared file's owner is the only shard whose crash
        # perturbs the lookup path; crash exactly that one.
        probe = MetadataCluster(shards, seed=0)
        owner = probe.shard_of("shared.dat")
        faults = parse_faults(self.FAULTS.format(shard=owner))
        return run_workload(
            testbed,
            workload,
            LAYOUT,
            layout_name="64K",
            faults=faults,
            retry=RetryPolicy(seed=0),
        )

    def test_owner_crash_recovers_with_zero_lost_entries(self):
        result = self._run()
        assert result.mds.crashes == 1
        assert result.mds.recoveries == 1
        assert result.mds.lost_entries == 0
        assert result.mds.failed is False
        assert result.mds.retries > 0  # clients really did wait out the outage
        assert result.faults.mds_crashes == 1
        assert result.faults.mds_recoveries == 1

    def test_crash_run_is_bit_identical_serially(self):
        a, b = self._run(), self._run()
        assert a.makespan == b.makespan
        assert a.mds == b.mds
        assert a.faults == b.faults

    def test_crash_run_is_bit_identical_under_jobs(self):
        serial = self._run()
        probe = MetadataCluster(4, seed=0)
        owner = probe.shard_of("shared.dat")
        job = RunJob(
            testbed=_testbed(mds_shards=4),
            workload=_ior(),
            layout=LAYOUT,
            layout_name="64K",
            faults=parse_faults(self.FAULTS.format(shard=owner)),
            retry=RetryPolicy(seed=0),
        )
        parallel_a, parallel_b = run_jobs([job, job], jobs=2)
        for result in (parallel_a, parallel_b):
            assert result.makespan == serial.makespan
            assert result.mds == serial.mds
            assert result.faults == serial.faults

    def test_degraded_mode_fails_typed_not_wedged(self):
        result = self._run(recovery=None)
        assert result.mds.failed is True
        assert result.mds.recoveries == 0
        assert result.mds.lost_entries > 0
        assert result.faults.mds_unavailable >= 1

    def test_crash_of_non_owner_shard_is_invisible_to_lookups(self):
        testbed = _testbed(mds_shards=4)
        probe = MetadataCluster(4, seed=0)
        owner = probe.shard_of("shared.dat")
        bystander = next(i for i in range(4) if i != owner)
        result = run_workload(
            testbed,
            _ior(),
            LAYOUT,
            layout_name="64K",
            faults=parse_faults(self.FAULTS.format(shard=bystander)),
            retry=RetryPolicy(seed=0),
        )
        assert result.mds.crashes == 1
        assert result.mds.retries == 0
        assert result.mds.lost_entries == 0

    def test_mds_crash_on_the_only_shard_fails_typed(self):
        # The default single shard has no successor to replay its journal
        # on: the run ends as a typed degraded outcome, not a traceback.
        result = run_workload(
            _testbed(),
            _ior(),
            LAYOUT,
            faults=parse_faults("mds-crash:0@0.01"),
            retry=RetryPolicy(seed=0),
        )
        assert result.mds.failed is True
        assert result.mds.crashes == 1
        assert result.mds.recoveries == 0
        assert result.faults.mds_unavailable >= 1


class TestBatchFastPath:
    def _run(self, force_general, shards=2, routing="finger", cache=False):
        import numpy as np

        testbed = _testbed(
            mds_shards=shards, mds_routing=routing, mds_cache=cache
        )
        sim = Simulator()
        pfs = testbed.build(sim)
        handle = pfs.create_file("shared.dat", LAYOUT)
        batch = _ior().request_batch()
        done = handle.request_batch(batch, force_general=force_general)
        sim.run(done)
        state = {
            "elapsed": np.asarray(done.value, dtype=np.float64).tolist(),
            "now": sim.now,
            "busy": sorted(pfs.server_busy_times().items()),
            "cluster": pfs.mds.cluster_counters(),
            "shard_lookups": [s.lookup_count for s in pfs.mds.shards],
            "shard_busy": [s.utilization_seconds for s in pfs.mds.shards],
            "cache": None if pfs.mds_cache is None else pfs.mds_cache.counters(),
        }
        return pfs, state

    @pytest.mark.parametrize("routing", sorted(ROUTING_MODES))
    def test_cluster_batch_replays_bit_identical(self, routing):
        pfs_fast, fast = self._run(False, routing=routing)
        _, general = self._run(True, routing=routing)
        assert pfs_fast.batch_fallbacks == {}
        assert pfs_fast.batch_stats["fast_batches"] == 1
        assert fast == general

    @pytest.mark.parametrize("cache", [False, True])
    def test_cached_cluster_batch_replays_bit_identical(self, cache):
        pfs_fast, fast = self._run(False, shards=4, cache=cache)
        _, general = self._run(True, shards=4, cache=cache)
        assert pfs_fast.batch_fallbacks == {}
        assert fast == general
        if cache:
            assert fast["cache"]["misses"] == 1
            assert fast["cache"]["stale_hits"] == 0

    def test_degraded_ring_still_falls_back(self):
        testbed = _testbed(mds_shards=2)
        sim = Simulator()
        pfs = testbed.build(sim)
        handle = pfs.create_file("shared.dat", LAYOUT)
        pfs.mds.crash_shard(0)
        batch = _ior().request_batch()
        sim.run(handle.request_batch(batch))
        assert pfs.batch_fallbacks == {"mds-degraded": 1}


class TestObsExport:
    def test_cluster_counters_exported_as_mds_metrics(self):
        result = run_workload(
            _testbed(mds_shards=2), _ior(), LAYOUT, trace=True
        )
        metrics = result.obs.metrics
        assert metrics["mds.shards"]["value"] == 2
        assert metrics["mds.lookups"]["value"] == result.mds.lookups
        assert "mds.journal_appends" in metrics
