"""Unit tests for the repro.faults package and the health/failover layer."""

import pickle

import pytest

from hypothesis import given as given
from hypothesis import settings as hyp_settings
from hypothesis import strategies as hyp_st

from repro.core.planner import HARLPlanner
from repro.experiments.calibrate import calibrate_parameters
from repro.faults import (
    DataCorruption,
    FaultInjector,
    FaultSchedule,
    FaultSpecError,
    NetworkBlip,
    RetryPolicy,
    ServerCrash,
    ServerDegrade,
    ServerHang,
    ServerUnavailable,
    inject,
    parse_faults,
)
from repro.online.migration import MigrationAborted, RegionMigrator, changed_ranges
from repro.pfs.client import ClientRequest, PFSClient
from repro.pfs.filesystem import HybridPFS
from repro.pfs.health import ServerHealth
from repro.pfs.layout import FixedLayout
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB
from repro.workloads.traces import OpType, TraceRecord


class TestFaultSpecParsing:
    def test_parse_all_kinds(self):
        schedule = parse_faults(
            "crash:sserver0@0.5; hang:hserver1@1+0.25 ;degrade:2@0.1x3.5+1;blip@0x2+0.125"
        )
        crash, hang, degrade, blip = schedule.events
        assert crash == ServerCrash(0.5, "sserver0")
        assert hang == ServerHang(1.0, "hserver1", 0.25)
        assert degrade == ServerDegrade(0.1, 2, 3.5, 1.0)
        assert blip == NetworkBlip(0.0, 2.0, 0.125)

    @pytest.mark.parametrize(
        "bad",
        [
            "",
            ";;",
            "crash:sserver0",
            "crash@0.5",
            "hang:s0@1",  # missing duration
            "degrade:s0@1+2",  # missing factor
            "blip:sserver0@1x2+1",  # blips have no server
            "explode:s0@1",
            "crash:s0@-1",
        ],
    )
    def test_malformed_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)

    def test_parse_errors_are_value_errors(self):
        with pytest.raises(ValueError):
            parse_faults("nope")

    def test_validation_rejects_bad_values(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule((ServerHang(1.0, 0, -0.5),)).validate()
        with pytest.raises(FaultSpecError):
            FaultSchedule((ServerDegrade(1.0, 0, 0.5, 1.0),)).validate()
        with pytest.raises(FaultSpecError):
            FaultSchedule((ServerCrash(1.0, 7),)).validate(n_servers=4)


class TestFaultScheduleRandom:
    def test_same_seed_same_schedule(self):
        kwargs = dict(horizon=10.0, n_servers=6, crash_rate=1.0, hang_rate=2.0, blip_rate=1.0)
        a = FaultSchedule.random(seed=42, **kwargs)
        b = FaultSchedule.random(seed=42, **kwargs)
        assert a == b
        assert pickle.dumps(a) == pickle.dumps(b)

    def test_different_seed_different_schedule(self):
        kwargs = dict(horizon=10.0, n_servers=6, hang_rate=8.0)
        assert FaultSchedule.random(seed=1, **kwargs) != FaultSchedule.random(seed=2, **kwargs)

    def test_crash_cap_leaves_a_survivor(self):
        schedule = FaultSchedule.random(seed=0, horizon=10.0, n_servers=2, crash_rate=50.0)
        assert len(schedule.crashes()) <= 1

    def test_zero_rates_empty(self):
        assert not FaultSchedule.random(seed=0, horizon=1.0, n_servers=2)

    def test_sorted_events_by_time(self):
        schedule = FaultSchedule.random(seed=3, horizon=5.0, n_servers=4, hang_rate=6.0)
        times = [event.time for event in schedule.sorted_events()]
        assert times == sorted(times)


class TestRetryPolicy:
    def test_delays_deterministic(self):
        policy = RetryPolicy(seed=9)
        key = ("f", "write", 0, 4096)
        assert policy.delay(1, key) == policy.delay(1, key)
        assert policy.delay(1, key) != policy.delay(2, key)

    def test_exponential_growth_and_cap(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=0.35, jitter=0.0)
        assert policy.delay(1) == pytest.approx(0.1)
        assert policy.delay(2) == pytest.approx(0.2)
        assert policy.delay(3) == pytest.approx(0.35)  # capped, not 0.4
        assert policy.delay(10) == pytest.approx(0.35)

    def test_jitter_bounded(self):
        policy = RetryPolicy(backoff_base=0.1, backoff_cap=10.0, jitter=0.5, seed=1)
        for attempt in range(1, 6):
            delay = policy.delay(attempt, ("k",))
            base = min(10.0, 0.1 * 2 ** (attempt - 1))
            assert base <= delay <= base * 1.5

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=1.5)

    def test_picklable(self):
        policy = RetryPolicy(timeout=0.5, max_attempts=3, seed=4)
        assert pickle.loads(pickle.dumps(policy)) == policy


class TestServerHealth:
    def test_identity_while_healthy(self):
        health = ServerHealth((4, 2))
        assert health.route_map is None
        assert health.route(3) == 3
        assert health.availability_mask() == (True,) * 6
        assert health.surviving_server_ids() == (0, 1, 2, 3, 4, 5)
        assert not health.touched

    def test_same_class_failover_round_robin(self):
        health = ServerHealth((3, 2))
        assert health.mark_failed(1, now=1.0)
        assert not health.mark_failed(1, now=2.0)  # idempotent
        target = health.route(1)
        assert target in (0, 2)  # same class survivors
        assert health.rerouted_subrequests == 1

    def test_cross_class_fallback(self):
        health = ServerHealth((1, 2))
        health.mark_failed(0, now=0.0)  # the only HServer dies
        assert health.route(0) in (1, 2)

    def test_no_survivors_raises(self):
        health = ServerHealth((1, 1))
        health.mark_failed(0, now=0.0)
        health.mark_failed(1, now=0.0)
        with pytest.raises(ServerUnavailable):
            health.route(0)

    def test_surviving_ids_are_the_degraded_server_map(self):
        health = ServerHealth((2, 2))
        health.mark_failed(1, now=0.0)
        assert health.surviving_server_ids() == (0, 2, 3)
        assert health.availability_mask() == (True, False, True, True)


def _small_pfs(sim, hs=2, ss=2):
    return HybridPFS.build(sim, hs, ss, seed=0)


class TestFaultInjector:
    def test_unknown_server_rejected_at_install(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        schedule = FaultSchedule((ServerCrash(0.1, "nosuch"),))
        with pytest.raises(FaultSpecError, match="nosuch"):
            FaultInjector(sim, pfs, schedule).install()

    def test_install_twice_rejected(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        injector = inject(sim, pfs, FaultSchedule((ServerCrash(0.1, 0),)))
        with pytest.raises(RuntimeError):
            injector.install()

    def test_crash_marks_server_and_counts(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        injector = inject(sim, pfs, FaultSchedule((ServerCrash(0.25, "sserver0"),)))
        sim.run(until=1.0)
        assert pfs.servers[2].is_failed
        assert pfs.health.failed_at == {2: 0.25}
        stats = injector.stats()
        assert stats.crashes == 1 and stats.servers_failed == 1
        assert stats.total_injected == 1

    def test_degrade_window_restores_exact_identity(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        device = pfs.servers[0].device
        inject(sim, pfs, FaultSchedule((ServerDegrade(0.1, 0, 3.0, 0.5),)))
        sim.run(until=0.3)
        assert device.slowdown == 3.0
        sim.run(until=1.0)
        assert device.slowdown == 1.0  # exact float identity, not ~1.0

    def test_overlapping_degrades_compose(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        device = pfs.servers[0].device
        inject(
            sim,
            pfs,
            FaultSchedule((ServerDegrade(0.0, 0, 2.0, 1.0), ServerDegrade(0.5, 0, 3.0, 1.0))),
        )
        sim.run(until=0.75)
        assert device.slowdown == 6.0
        sim.run(until=1.25)
        assert device.slowdown == 3.0
        sim.run(until=2.0)
        assert device.slowdown == 1.0

    def test_blip_scales_network_and_restores(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        base = pfs.network.transfer_time(MiB)
        inject(sim, pfs, FaultSchedule((NetworkBlip(0.1, 2.0, 0.5),)))
        sim.run(until=0.3)
        assert pfs.network.transfer_time(MiB) == pytest.approx(2.0 * base)
        sim.run(until=1.0)
        assert pfs.network.congestion == 1.0
        assert pfs.network.transfer_time(MiB) == base


class TestDegradedModePlanning:
    @pytest.fixture(scope="class")
    def params(self):
        return calibrate_parameters(2, 2, repeats=20, seed=0)

    def _trace(self):
        return [
            TraceRecord(
                pid=0,
                rank=0,
                fd=3,
                op=OpType.WRITE,
                offset=i * 256 * KiB,
                size=256 * KiB,
                timestamp=i * 1e-3,
            )
            for i in range(16)
        ]

    def test_availability_mask_shrinks_config(self, params):
        planner = HARLPlanner(params, step=64 * KiB)
        rst = planner.plan(self._trace(), availability=(True, True, False, True))
        for entry in rst.entries:
            assert entry.config.n_hservers == 2
            assert entry.config.n_sservers == 1

    def test_full_mask_matches_unmasked_plan(self, params):
        planner = HARLPlanner(params, step=64 * KiB)
        masked = planner.plan(self._trace(), availability=(True,) * 4)
        unmasked = planner.plan(self._trace())
        assert [e.config for e in masked.entries] == [e.config for e in unmasked.entries]

    def test_bad_masks_rejected(self, params):
        planner = HARLPlanner(params, step=64 * KiB)
        with pytest.raises(ValueError, match="expected 4"):
            planner.plan(self._trace(), availability=(True, True))
        with pytest.raises(ValueError, match="no surviving"):
            planner.plan(self._trace(), availability=(False,) * 4)

    def test_degraded_relayout_serves_on_survivors_only(self, params):
        """Crash an SServer, re-plan with the mask, relayout, keep serving."""
        sim = Simulator()
        pfs = _small_pfs(sim)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        sim.run(handle.write(0, 2 * MiB))

        pfs.fail_server(2)  # sserver0
        planner = HARLPlanner(params, step=64 * KiB)
        degraded = planner.plan_layout(
            self._trace(), availability=pfs.health.availability_mask()
        )
        handle.relayout(degraded, server_map=pfs.health.surviving_server_ids())
        pfs.reset_statistics()
        sim.run(handle.write(0, 2 * MiB))
        assert pfs.servers[2].bytes_served == 0
        assert sum(s.bytes_served for s in pfs.servers) == 2 * MiB

    def test_relayout_server_map_validation(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        with pytest.raises(ValueError, match="server_map"):
            handle.relayout(FixedLayout(2, 1, 64 * KiB), server_map=(0, 1))
        with pytest.raises(ValueError, match="out of range"):
            handle.relayout(FixedLayout(2, 1, 64 * KiB), server_map=(0, 1, 9))


class TestClientRetry:
    def test_client_applies_policy_and_survives_crash(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        inject(sim, pfs, FaultSchedule((ServerCrash(1e-4, "sserver1"),)))
        client = PFSClient(sim, retry=RetryPolicy(timeout=0.5, max_attempts=4, seed=0))
        done = client.replay(
            handle, [ClientRequest(op="write", offset=i * MiB, size=MiB) for i in range(4)]
        )
        stats = sim.run(done)
        assert handle.retry is client.retry
        assert len(stats.latencies) == 4
        assert pfs.health.rerouted_subrequests > 0

    def test_exhausted_when_no_survivors(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 1, 1, seed=0)
        pfs.retry = RetryPolicy(timeout=0.05, max_attempts=2, seed=0)
        handle = pfs.create_file("f", FixedLayout(1, 1, 64 * KiB))
        pfs.fail_server(0)
        pfs.fail_server(1)
        with pytest.raises(ServerUnavailable):
            sim.run(handle.write(0, 128 * KiB))
        assert pfs.health.exhausted > 0


class TestMigrationAbort:
    def test_migrate_aborts_cleanly_when_target_dies(self):
        sim = Simulator()
        pfs = _small_pfs(sim)
        old_layout = FixedLayout(2, 2, 64 * KiB)
        new_layout = FixedLayout(2, 2, 256 * KiB)
        handle = pfs.create_file("f", old_layout)
        extent = 4 * MiB
        sim.run(handle.write(0, extent))
        written = handle.bytes_written

        migrator = RegionMigrator(pfs, "f", chunk_size=256 * KiB)
        ranges = changed_ranges(old_layout, new_layout, extent)
        assert ranges

        def crash_soon():
            yield sim.timeout(1e-4)
            pfs.fail_server(3)  # a target server of the new generation

        sim.process(crash_soon())
        proc = sim.process(
            migrator.migrate(old_layout, handle.layout_generation, new_layout, 1, ranges)
        )
        with pytest.raises(MigrationAborted) as excinfo:
            sim.run(proc)
        aborted = excinfo.value
        assert isinstance(aborted.cause, ServerUnavailable)
        assert 0 <= aborted.stats.bytes_moved < sum(size for _, size in ranges)
        # The original file is intact and still readable under its layout
        # (reads route around the dead server via the health layer).
        assert handle.bytes_written == written
        elapsed = sim.run(handle.read(0, extent))
        assert elapsed > 0


class TestObsIntegration:
    def test_fault_spans_and_counters_in_trace(self):
        from repro.obs import PHASE_FAULT, EventTracer, busy_time_by_server

        sim = Simulator()
        tracer = EventTracer()
        sim.tracer = tracer
        pfs = _small_pfs(sim)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        inject(
            sim,
            pfs,
            FaultSchedule((ServerDegrade(0.0, 0, 2.0, 0.5), ServerCrash(1e-4, "sserver0"))),
        )
        pfs.retry = RetryPolicy(timeout=0.5, max_attempts=3, seed=0)
        sim.run(handle.write(0, 2 * MiB))
        fault_spans = [s for s in tracer.spans if s.phase == PHASE_FAULT]
        assert {s.op for s in fault_spans} == {"degrade", "crash"}
        assert tracer.registry.counter("faults.injected.crash").value == 1
        # Fault spans never pollute device busy accounting.
        busy = busy_time_by_server(tracer.spans)
        for server in pfs.servers:
            assert busy.get(server.name, 0.0) == pytest.approx(server.disk_busy_time)

    def test_health_counters_exported_only_when_touched(self):
        from repro.obs.metrics import MetricsRegistry

        sim = Simulator()
        pfs = _small_pfs(sim)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        sim.run(handle.write(0, MiB))
        clean = MetricsRegistry()
        pfs.collect_metrics(clean, makespan=sim.now)
        assert not any(name.startswith("faults.") for name in clean.snapshot())

        pfs.fail_server(0)
        dirty = MetricsRegistry()
        pfs.collect_metrics(dirty, makespan=sim.now)
        assert dirty.counter("faults.servers_failed").value == 1


class TestToSpecRoundTrip:
    """``to_spec`` is the exact inverse of ``parse_faults``."""

    def test_manual_schedule_round_trips(self):
        schedule = FaultSchedule(
            (
                ServerCrash(0.5, "sserver0"),
                ServerHang(1.0, "hserver1", 0.25),
                ServerDegrade(0.1, 2, 3.5, 1.0),
                NetworkBlip(0.0, 2.0, 0.125),
                DataCorruption(0.75, "hserver0", 0.5),
                DataCorruption(0.8, 3),  # default rate omits the % suffix
            )
        )
        spec = schedule.to_spec()
        assert "%" not in spec.split(";")[-1]
        assert parse_faults(spec) == schedule

    @given(
        seed=hyp_st.integers(min_value=0, max_value=2**32 - 1),
        crash=hyp_st.floats(min_value=0.0, max_value=3.0),
        hang=hyp_st.floats(min_value=0.0, max_value=3.0),
        degrade=hyp_st.floats(min_value=0.0, max_value=3.0),
        blip=hyp_st.floats(min_value=0.0, max_value=3.0),
        corrupt=hyp_st.floats(min_value=0.0, max_value=3.0),
    )
    @hyp_settings(max_examples=80, deadline=None)
    def test_random_schedules_round_trip(self, seed, crash, hang, degrade, blip, corrupt):
        schedule = FaultSchedule.random(
            seed=seed,
            horizon=2.0,
            n_servers=4,
            crash_rate=crash,
            hang_rate=hang,
            degrade_rate=degrade,
            blip_rate=blip,
            corrupt_rate=corrupt,
        )
        if schedule:
            assert parse_faults(schedule.to_spec()) == schedule
        else:
            # An empty schedule prints as the empty spec, which parse_faults
            # rejects by design — nothing to round-trip.
            assert schedule.to_spec() == ""

    def test_empty_random_schedule_has_empty_spec(self):
        schedule = FaultSchedule.random(seed=0, horizon=1.0, n_servers=2)
        assert schedule.to_spec() == ""


class TestMdsCrashSchedule:
    """mds-crash: spec grammar, random generation, and injector binding."""

    def test_parse_and_round_trip(self):
        from repro.faults import MdsCrash

        schedule = parse_faults("mds-crash:2@0.5;mds-crash:mds0@1.25")
        assert schedule.events[0] == MdsCrash(0.5, 2)
        assert schedule.events[1] == MdsCrash(1.25, "mds0")
        assert parse_faults(schedule.to_spec()) == schedule
        assert schedule.mds_crashes() == schedule.events

    @pytest.mark.parametrize(
        "bad", ["mds-crash:@0.5", "mds-crash:2", "mds-crash:2@-1"]
    )
    def test_malformed_mds_crash_specs_raise(self, bad):
        with pytest.raises(FaultSpecError):
            parse_faults(bad)

    def test_validation_rejects_negative_shard(self):
        from repro.faults import MdsCrash

        with pytest.raises(FaultSpecError):
            FaultSchedule((MdsCrash(0.5, -1),)).validate()

    def test_random_draws_deterministic_mds_crashes(self):
        kwargs = dict(
            horizon=5.0, n_servers=4, mds_crash_rate=3.0, n_mds_shards=4
        )
        a = FaultSchedule.random(seed=11, **kwargs)
        b = FaultSchedule.random(seed=11, **kwargs)
        assert a == b
        assert a.mds_crashes()
        assert all(0 <= event.shard < 4 for event in a.mds_crashes())

    def test_random_crash_cap_leaves_a_live_shard(self):
        schedule = FaultSchedule.random(
            seed=0, horizon=10.0, n_servers=4, mds_crash_rate=50.0, n_mds_shards=2
        )
        assert len(schedule.mds_crashes()) <= 1

    def test_random_rate_without_shard_count_rejected(self):
        with pytest.raises(FaultSpecError):
            FaultSchedule.random(seed=0, horizon=1.0, n_servers=2, mds_crash_rate=1.0)

    def test_injector_crashes_the_default_single_shard(self):
        # The default filesystem has one shard: the crash lands, and with
        # no successor to replay its journal the arc stays down.
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2)
        injector = FaultInjector(sim, pfs, parse_faults("mds-crash:0@0.01")).install()
        sim.run()
        assert injector.stats().mds_crashes == 1
        assert injector.stats().mds_recoveries == 0
        assert pfs.mds.health.alive == [False]

    def test_injector_rejects_out_of_range_shard(self):
        from repro.pfs.mds_cluster import MetadataCluster

        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, mds=MetadataCluster(2, seed=0))
        schedule = parse_faults("mds-crash:7@0.5")
        with pytest.raises(FaultSpecError, match="out of range"):
            FaultInjector(sim, pfs, schedule).install()

    def test_injector_resolves_shard_names(self):
        from repro.pfs.mds_cluster import MetadataCluster

        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, mds=MetadataCluster(2, seed=0))
        injector = FaultInjector(sim, pfs, parse_faults("mds-crash:mds1@0.01")).install()
        sim.run()
        assert injector.injected["mds-crash"] == 1
        assert injector.stats().mds_crashes == 1
        assert injector.stats().mds_recoveries == 1
