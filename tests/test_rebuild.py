"""Durability under permanent server loss (DESIGN.md §16).

Covers the rebuild/re-replication manager, server rejoin backfill, and
quorum-acknowledged writes: a crash must never silently lose data — either
every written region regains full redundancy (MTTR reported) or the loss is
counted and typed. The property test interleaves random crash/restore
schedules with replicated writes and checks the invariant that survives all
of them: zero silent corruptions, and full redundancy whenever the rebuild
drains loss-free.
"""

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.harness import Testbed, run_workload, run_workload_batched
from repro.experiments.parallel import RunJob, run_jobs
from repro.faults import (
    FaultSchedule,
    RetryPolicy,
    ServerCrash,
    ServerRestore,
    parse_faults,
)
from repro.online import DataLossError, RebuildConfig, RebuildManager
from repro.pfs.batch_exec import fast_path_blocker
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload

TESTBED = Testbed(n_hservers=2, n_sservers=2, seed=0)
WORKLOAD = IORWorkload(
    IORConfig(n_processes=4, request_size=64 * KiB, file_size=2 * MiB, seed=0)
)
LAYOUT = FixedLayout(2, 2, 64 * KiB, replicas=2)
RETRY = RetryPolicy(timeout=None, max_attempts=4, jitter=0.25, seed=7)
ONE_CRASH = FaultSchedule((ServerCrash(0.002, 0),))


def _run(faults=None, rebuild=None, write_quorum=None, batched=False, layout=LAYOUT):
    fn = run_workload_batched if batched else run_workload
    return fn(
        TESTBED,
        WORKLOAD,
        layout,
        faults=faults,
        retry=RETRY if faults is not None else None,
        rebuild=rebuild,
        write_quorum=write_quorum,
    )


class TestRestoreGrammar:
    def test_spec_round_trip_includes_restores(self):
        schedule = FaultSchedule(
            (ServerCrash(0.002, 0), ServerRestore(0.05, 0), ServerRestore(0.06, "hserver1"))
        )
        assert parse_faults(schedule.to_spec()) == schedule

    def test_parse_restore_by_name_and_index(self):
        schedule = parse_faults("crash:hserver0@0.01;restore:hserver0@0.05;restore:1@0.07")
        restores = schedule.restores()
        assert [event.server for event in restores] == ["hserver0", 1]
        assert [event.time for event in restores] == [0.05, 0.07]

    def test_random_pairs_every_crash_with_a_restore(self):
        schedule = FaultSchedule.random(
            seed=3,
            horizon=1.0,
            n_servers=4,
            crash_rate=8.0,
            class_counts=(2, 2),
            crash_restore_delay=0.25,
        )
        crashes = schedule.crashes()
        restores = schedule.restores()
        assert crashes, "expected at least one crash at rate 8"
        assert len(restores) == len(crashes)
        for crash, restore in zip(crashes, restores):
            assert restore.server == crash.server
            assert restore.time == pytest.approx(crash.time + 0.25)


class TestSurvivorsFloor:
    """FaultSchedule.random(class_counts=...) never kills a whole class."""

    def test_each_class_keeps_a_survivor(self):
        for seed in range(40):
            schedule = FaultSchedule.random(
                seed=seed,
                horizon=1.0,
                n_servers=4,
                crash_rate=20.0,
                class_counts=(2, 2),
            )
            crashed = {event.server for event in schedule.crashes()}
            assert not {0, 1} <= crashed, f"seed {seed} crashed every HServer"
            assert not {2, 3} <= crashed, f"seed {seed} crashed every SServer"

    def test_floor_survives_uneven_classes(self):
        for seed in range(20):
            schedule = FaultSchedule.random(
                seed=seed,
                horizon=1.0,
                n_servers=4,
                crash_rate=20.0,
                class_counts=(3, 1),
            )
            crashed = {event.server for event in schedule.crashes()}
            assert 3 not in crashed, "a 1-server class must never be crashed"
            assert not {0, 1, 2} <= crashed

    def test_class_counts_must_sum_to_n_servers(self):
        from repro.faults import FaultSpecError

        with pytest.raises(FaultSpecError):
            FaultSchedule.random(
                seed=0, horizon=1.0, n_servers=4, crash_rate=1.0, class_counts=(2, 1)
            )

    def test_legacy_stream_unchanged_without_class_counts(self):
        a = FaultSchedule.random(seed=5, horizon=1.0, n_servers=4, crash_rate=2.0, hang_rate=3.0)
        b = FaultSchedule.random(seed=5, horizon=1.0, n_servers=4, crash_rate=2.0, hang_rate=3.0)
        assert a == b


class TestRebuildRestoresRedundancy:
    def test_crash_then_rebuild_ends_fully_redundant(self):
        result = _run(faults=ONE_CRASH, rebuild=True)
        stats = result.durability
        assert stats is not None
        assert stats.data_loss_events == 0
        assert stats.data_lost_bytes == 0
        assert stats.placements_rebuilt > 0
        assert stats.bytes_rebuilt > 0
        assert stats.fully_redundant
        assert stats.at_risk_bytes_final == 0
        assert stats.mttr_samples, "a loss-free crash batch must record MTTR"
        assert stats.exposure_seconds > 0
        assert stats.crash_batches == 1

    def test_lower_duty_cycle_means_longer_exposure(self):
        fast = _run(faults=ONE_CRASH, rebuild=RebuildConfig(duty_cycle=1.0)).durability
        slow = _run(faults=ONE_CRASH, rebuild=RebuildConfig(duty_cycle=0.25)).durability
        assert fast.fully_redundant and slow.fully_redundant
        assert slow.mttr_mean > fast.mttr_mean

    def test_rebuild_off_reports_no_durability(self):
        result = _run(faults=ONE_CRASH)
        assert result.durability is None


class TestCorruptRebuildSource:
    """A poisoned source copy must not abort the rebuild worker: it falls
    back to the next live clean copy, and counts a loss only when no copy
    of a chunk verifies."""

    TESTBED = Testbed(n_hservers=4, n_sservers=2, seed=0)
    # sserver0 (the first live copy of hserver0's columns) is fully poisoned
    # just before hserver0 crashes.
    ONE_POISONED = "corrupt:sserver0@0.004%1.0;crash:hserver0@0.0045"
    ALL_POISONED = (
        "corrupt:sserver0@0.004%1.0;corrupt:sserver1@0.004%1.0;"
        "corrupt:hserver1@0.004%1.0;corrupt:hserver2@0.004%1.0;"
        "corrupt:hserver3@0.004%1.0;crash:hserver0@0.0045"
    )

    def _run(self, spec, replicas, fail_on_loss=False):
        return run_workload(
            self.TESTBED,
            WORKLOAD,
            FixedLayout(4, 2, 64 * KiB, replicas=replicas),
            faults=parse_faults(spec),
            retry=RETRY,
            rebuild=RebuildConfig(fail_on_loss=fail_on_loss),
        )

    def test_falls_back_to_the_clean_third_copy(self):
        result = self._run(self.ONE_POISONED, replicas=3)
        stats = result.durability
        assert stats.data_loss_events == 0
        assert stats.placements_rebuilt > 0
        assert stats.fully_redundant
        integrity = result.integrity
        assert integrity.mismatches > 0  # the poisoned source was read
        assert integrity.unrepairable == integrity.mismatches
        assert integrity.silent_corruptions == 0

    def test_no_clean_copy_is_a_counted_loss(self):
        result = self._run(self.ALL_POISONED, replicas=2)
        stats = result.durability
        assert stats.data_loss_events > 0
        assert stats.data_lost_bytes > 0
        assert not stats.fully_redundant
        assert result.integrity.silent_corruptions == 0

    def test_no_clean_copy_raises_typed_loss_under_fail_on_loss(self):
        with pytest.raises(DataLossError, match="failed verification"):
            self._run(self.ALL_POISONED, replicas=2, fail_on_loss=True)

    def test_run_ior_reproducer_exits_zero(self, capsys):
        from repro.cli import main

        code = main(
            [
                "run-ior", "--hservers", "4", "--sservers", "2",
                "--processes", "4", "--file-size", "2M", "--request-size", "64K",
                "--replicas", "3", "--rebuild", "--faults", self.ONE_POISONED,
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "1 placements rebuilt" in out
        assert " 0 silent" in out


class TestPartialChunkLoss:
    """One poisoned block must cost one block, not the whole rebuild chunk."""

    def test_only_the_block_with_no_clean_copy_is_lost(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        manager = RebuildManager(pfs)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB, replicas=2))
        # 16 stripe units round-robin: server 0's column holds four
        # contiguous 64 KiB blocks, mirrored onto server 2.
        sim.run(sim.all_of([handle.write(i * 64 * KiB, 64 * KiB) for i in range(16)]))
        mirror = pfs.servers[2].checksums
        mirror_base = pfs._extent_bases[("f#g0~r1", 0, 2)]
        assert mirror.poison_block(mirror_base // mirror.block_size + 1)
        pfs.fail_server(0)
        sim.run(sim.process(manager.drain()))
        stats = manager.stats()
        assert stats.data_lost_bytes == 64 * KiB
        assert stats.data_loss_events == 1
        assert stats.bytes_rebuilt == 3 * 64 * KiB + 256 * KiB
        assert pfs.integrity.stats().silent_corruptions == 0


class TestRejoinBackfill:
    def _write_replicated(self, sim, pfs):
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB, replicas=2))
        procs = [handle.write(i * 64 * KiB, 64 * KiB) for i in range(8)]
        sim.run(sim.all_of(procs))
        return handle

    def test_restore_backfills_and_clears_overrides(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        manager = RebuildManager(pfs)
        self._write_replicated(sim, pfs)
        pfs.fail_server(0)
        sim.run(sim.process(manager.drain()))
        assert pfs.placement.overrides, "rebuild must relocate the victim's placements"
        pfs.restore_server(0)
        sim.run(sim.process(manager.drain()))
        assert pfs.placement.overrides == {}, "backfill must return placements home"
        stats = manager.stats()
        assert stats.restore_batches >= 1
        assert stats.fully_redundant
        assert stats.data_loss_events == 0

    def test_double_attach_rejected(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        RebuildManager(pfs)
        with pytest.raises(RuntimeError):
            RebuildManager(pfs)


class TestSecondCrashDuringRebuild:
    """The deterministic 'unlucky' regression: both copies die in the window."""

    def test_loss_is_counted_and_the_run_completes(self):
        double = FaultSchedule((ServerCrash(0.002, 0), ServerCrash(0.004, 2)))
        result = _run(faults=double, rebuild=True)
        stats = result.durability
        assert stats is not None
        assert stats.data_loss_events > 0
        assert stats.data_lost_bytes > 0
        assert stats.regions_lost > 0
        assert not stats.fully_redundant
        # The run itself still finishes: loss is an accounted outcome, not a hang.
        assert result.makespan > 0

    def test_fail_on_loss_raises_typed_error(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        manager = RebuildManager(pfs, fail_on_loss=True)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB, replicas=2))
        sim.run(sim.all_of([handle.write(i * 64 * KiB, 64 * KiB) for i in range(4)]))
        pfs.fail_server(0)
        with pytest.raises(DataLossError) as excinfo:
            # Kill the other class too: some column now has zero live copies.
            pfs.fail_server(2)
            sim.run(sim.process(manager.drain()))
        assert excinfo.value.lost_bytes > 0
        assert manager.stats().data_lost_bytes == excinfo.value.lost_bytes


class TestQuorumWrites:
    def test_crash_between_ack_and_mirror_is_counted_not_lost(self):
        result = _run(faults=ONE_CRASH, rebuild=True, write_quorum=1)
        stats = result.durability
        assert stats.quorum_acks > 0
        assert stats.trailing_mirrors > 0
        assert stats.quorum_window_failures > 0, (
            "the crash must land inside some ack-to-mirror window"
        )
        # Rebuild closes the window the async mirrors left open.
        assert stats.data_lost_bytes == 0
        assert stats.fully_redundant

    def test_quorum_without_faults_has_no_window_failures(self):
        stats = _run(rebuild=None, write_quorum=1).durability
        assert stats is not None
        assert stats.quorum_acks > 0
        assert stats.quorum_window_failures == 0
        assert stats.data_loss_events == 0

    def test_quorum_must_be_positive(self):
        with pytest.raises(ValueError):
            _run(write_quorum=0)


class TestSerialParallelIdentity:
    def test_rebuild_runs_identical_serial_and_pooled(self):
        double = FaultSchedule((ServerCrash(0.002, 0), ServerCrash(0.004, 2)))
        job_list = [
            RunJob(
                testbed=TESTBED,
                workload=WORKLOAD,
                layout=LAYOUT,
                faults=schedule,
                retry=RETRY,
                rebuild=RebuildConfig(duty_cycle=duty),
                write_quorum=quorum,
            )
            for schedule, duty, quorum in (
                (ONE_CRASH, 1.0, None),
                (ONE_CRASH, 0.25, 1),
                (double, 1.0, None),
            )
        ]
        serial = run_jobs(job_list, jobs=1)
        pooled = run_jobs(job_list, jobs=2)
        for left, right in zip(serial, pooled):
            assert left.makespan == right.makespan
            assert left.durability == right.durability
            assert pickle.dumps(left.durability) == pickle.dumps(right.durability)


class TestRebuildOffParity:
    """Rebuild off = the exact pre-durability simulator, event for event."""

    def test_fast_path_blocked_only_when_armed(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        handle = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        baseline = fast_path_blocker(handle)
        assert baseline not in ("rebuild", "write-quorum")
        RebuildManager(pfs)
        assert fast_path_blocker(handle) == "rebuild"

    def test_quorum_blocks_fast_path_only_with_replicas(self):
        sim = Simulator()
        pfs = HybridPFS.build(sim, 2, 2, seed=0)
        pfs.write_quorum = 1
        plain = pfs.create_file("f", FixedLayout(2, 2, 64 * KiB))
        assert fast_path_blocker(plain) != "write-quorum"
        replicated = pfs.create_file("g", FixedLayout(2, 2, 64 * KiB, replicas=2))
        assert fast_path_blocker(replicated) == "write-quorum"

    def test_idle_manager_leaves_makespan_untouched(self):
        plain = _run()
        armed = _run(rebuild=True)
        assert armed.makespan == plain.makespan
        assert armed.durability.placements_rebuilt == 0
        assert armed.durability.fully_redundant

    def test_batched_run_counts_rebuild_fallback_and_stays_lossless(self):
        # No fault schedule: the injector's own timers would otherwise trip
        # the earlier "simulator-busy" blocker before "rebuild" is consulted.
        sink = {}
        result = run_workload_batched(
            TESTBED, WORKLOAD, LAYOUT, rebuild=True, stats_sink=sink
        )
        assert sink["batch_fallbacks"].get("rebuild", 0) > 0
        assert result.durability.data_lost_bytes == 0
        assert result.durability.fully_redundant

    def test_batched_rebuild_off_keeps_fast_tiers(self):
        sink_plain, sink_armed = {}, {}
        plain = run_workload_batched(TESTBED, WORKLOAD, LAYOUT, stats_sink=sink_plain)
        quorum = run_workload_batched(
            TESTBED, WORKLOAD, LAYOUT, write_quorum=1, stats_sink=sink_armed
        )
        # Quorum on a replicated layout forces the general tier...
        assert sink_armed["batch_fallbacks"].get("write-quorum", 0) > 0
        # ...but leaving durability off keeps whatever tier PR 9 used.
        assert "rebuild" not in sink_plain["batch_fallbacks"]
        assert "write-quorum" not in sink_plain["batch_fallbacks"]
        assert plain.durability is None
        assert quorum.durability is not None


# -- property: random crash/restore interleavings ---------------------------

_CLASS0 = st.sampled_from([None, 0, 1])
_CLASS1 = st.sampled_from([None, 2, 3])
_TIMES = st.floats(min_value=0.001, max_value=0.05, allow_nan=False)
_DELAYS = st.sampled_from([None, 0.01, 0.05])


@settings(max_examples=12, deadline=None)
@given(
    victim0=_CLASS0,
    victim1=_CLASS1,
    t0=_TIMES,
    t1=_TIMES,
    restore0=_DELAYS,
    restore1=_DELAYS,
)
def test_property_no_silent_loss_under_crash_restore_interleavings(
    victim0, victim1, t0, t1, restore0, restore1
):
    """Any crash/restore interleaving: reads stay honest, redundancy returns.

    At most one crash per performance class (so writes always have a live
    route), each optionally followed by a rejoin. Whatever the interleaving,
    a drained rebuild must report either counted loss or full redundancy —
    and the checksummed read path must never pass corrupt bytes silently.
    """
    events = []
    for victim, at, delay in ((victim0, t0, restore0), (victim1, t1, restore1)):
        if victim is None:
            continue
        events.append(ServerCrash(at, victim))
        if delay is not None:
            events.append(ServerRestore(at + delay, victim))
    result = _run(
        faults=FaultSchedule(tuple(events)) if events else None,
        rebuild=True,
    )
    if result.integrity is not None:
        assert result.integrity.silent_corruptions == 0
    stats = result.durability
    assert stats is not None
    if stats.data_loss_events == 0:
        assert stats.fully_redundant, (
            "a loss-free drain must restore every replica of every written region"
        )
        assert stats.at_risk_bytes_final == 0
    else:
        assert stats.data_lost_bytes > 0
        assert not stats.fully_redundant
