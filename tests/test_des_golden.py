"""Golden results of the scalar DES kernel under faults, QoS and barriers.

The values in ``tests/data/des_golden.json`` were first recorded on the
kernel that kept every event, zero-delay ones included, on its one binary
heap, and re-recorded once when the kernel stopped making events that
change nothing: synchronous grants of free server slots, in-place ends of
processes nobody waits on, and resilient serves run inside the requesting
process. A kernel change that keeps the same events in the same dispatch
order reproduces them bit for bit. Three runs are pinned:

- ``checkpoint``: a replicated checkpoint write and restart read on 6H+2S
  with an HServer crash and restore, corrupted units on both server
  classes, a rebuild manager, ``write_quorum=1`` and a retry policy, on a
  two-shard metadata service with the client-side layout cache on;
- ``serving``: one gold/silver/bronze open-loop rate under a seeded
  degrade/blip/hang schedule with a retry policy (hedged gold reads,
  weighted-fair disks);
- ``ior-harl``: a closed-loop IOR figure run of MPI ranks between two
  barriers on a HARL layout.

Each record holds the makespan and per-server busy times as ``float.hex``,
the device RNG digests, the fault, integrity, durability, metadata and
cache counters, per-tenant histogram counts for the serving run, and the
number of dispatched DES events. Each run is made traced (the event count
comes from the tracer) and untraced; both must match the record.

Regenerate the file (only when a change is *meant* to move simulated
results or the DES event stream) with
``PYTHONPATH=src python tests/test_des_golden.py``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import pytest

from repro.devices.base import OpType
from repro.experiments.harness import Testbed, harl_plan, run_workload
from repro.faults import FaultSchedule, RetryPolicy, parse_faults
from repro.online import RebuildConfig
from repro.pfs.layout import FixedLayout, RegionLevelLayout
from repro.pfs.placement import extent_key, parse_extent_key, parse_namespace
from repro.serving import make_scenario
from repro.serving.frontend import simulate_scenario
from repro.serving.tiers import TenantSpec
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.temporal import PhaseSpec, TemporalPhaseWorkload

GOLDEN = Path(__file__).parent / "data" / "des_golden.json"
RUNS = ("checkpoint", "serving", "ior-harl")
CHECKPOINT_FAULTS = (
    "crash:hserver1@0.1;restore:hserver1@0.225;"
    "corrupt:sserver0@0.0375%0.2;corrupt:hserver3@0.0625%0.2"
)


class _RecordingTestbed(Testbed):
    """A testbed that keeps the last filesystem it built (for RNG states)."""

    __test__ = False
    pfs = None

    def build(self, sim):
        self.pfs = super().build(sim)
        return self.pfs


def _canon(value):
    """JSON form of a result: floats as hex, dataclasses as dicts."""
    if dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(key): _canon(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canon(item) for item in value]
    return value


def _rng_digest(pfs) -> list[str]:
    return [
        hashlib.sha256(
            json.dumps(server.device.rng.bit_generator.state, sort_keys=True).encode()
        ).hexdigest()[:16]
        for server in pfs.servers
    ]


def _events(metrics: dict | None) -> int | None:
    return None if metrics is None else metrics["sim.events_dispatched"]["value"]


def _run_record(result, pfs) -> dict:
    return {
        "makespan": _canon(result.makespan),
        "busy": _canon(result.server_busy),
        "rng": _rng_digest(pfs),
        "faults": _canon(result.faults),
        "integrity": _canon(result.integrity),
        "durability": _canon(result.durability),
        "mds": _canon(result.mds),
        "cache": _canon(result.cache),
        "events": _events(result.obs.metrics if result.obs is not None else None),
    }


def _checkpoint_run(trace: bool):
    """The checkpoint run's result and the filesystem it ran on."""
    testbed = _RecordingTestbed(n_hservers=6, n_sservers=2, seed=0, mds_shards=2, mds_cache=True)
    workload = TemporalPhaseWorkload(
        [PhaseSpec(256 * KiB, 16, OpType.WRITE), PhaseSpec(64 * KiB, 64, OpType.READ)],
        n_processes=8,
        seed=1,
    )
    result = run_workload(
        testbed,
        workload,
        FixedLayout(6, 2, 64 * KiB, replicas=2),
        trace=trace,
        faults=parse_faults(CHECKPOINT_FAULTS),
        retry=RetryPolicy(seed=1),
        rebuild=RebuildConfig(duty_cycle=0.5),
        write_quorum=1,
    )
    return result, testbed.pfs


def _checkpoint(trace: bool) -> dict:
    return _run_record(*_checkpoint_run(trace))


def _serving(trace: bool) -> dict:
    testbed = Testbed(n_hservers=6, n_sservers=2, seed=0)
    duration = 0.25
    faults = FaultSchedule.random(
        seed=7919, horizon=duration, n_servers=8, degrade_rate=8.0, blip_rate=8.0,
        hang_rate=4.0,
    )
    tenants = [
        TenantSpec(name=tier, tier=tier, arrival="poisson", rate=1000.0,
                   read_fraction=0.7, working_set=64 * MiB)
        for tier in ("gold", "silver", "bronze")
    ]
    scenario = make_scenario(tenants, duration=duration, seed=1)
    serving, sim, pfs, tracer, injector = simulate_scenario(
        testbed, scenario, faults=faults, retry=RetryPolicy(seed=1), trace=trace
    )
    return {
        "makespan": _canon(serving.makespan),
        "now": _canon(sim.now),
        "busy": _canon(pfs.server_busy_times()),
        "rng": _rng_digest(pfs),
        "faults": _canon(injector.stats()),
        "integrity": _canon(pfs.integrity.stats() if pfs.integrity is not None else None),
        "hedge": _canon(serving.hedge),
        "tenants": {
            tenant.name: {
                "counts": [tenant.requests, tenant.rejected, tenant.failed],
                "bytes": [tenant.bytes_read, tenant.bytes_written],
                "throttle_wait_s": _canon(tenant.throttle_wait_s),
                "latency": _canon(tenant.latency),
                "read_latency": _canon(tenant.read_latency),
            }
            for tenant in serving.tenants
        },
        "events": None if tracer is None else tracer.events_dispatched,
    }


def _ior_harl(trace: bool) -> dict:
    testbed = _RecordingTestbed(n_hservers=2, n_sservers=2, seed=0)
    workload = IORWorkload(IORConfig(n_processes=8, request_size=128 * KiB, file_size=8 * MiB))
    layout = RegionLevelLayout(harl_plan(testbed, workload))
    result = run_workload(testbed, workload, layout, layout_name="harl", trace=trace)
    return _run_record(result, testbed.pfs)


CAPTURE = {"checkpoint": _checkpoint, "serving": _serving, "ior-harl": _ior_harl}


def capture(run: str) -> dict:
    """The traced record of one golden run."""
    return CAPTURE[run](trace=True)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("run", RUNS)
def test_des_run_matches_golden(golden, run):
    assert capture(run) == golden[run]


@pytest.mark.parametrize("run", RUNS)
def test_untraced_des_run_matches_golden(golden, run):
    record = CAPTURE[run](trace=False)
    assert record.pop("events") is None
    expected = dict(golden[run])
    expected.pop("events")
    assert record == expected


def test_checkpoint_extent_keys_round_trip():
    """Every extent key the checkpoint run allocated parses and re-formats
    to itself: natural primaries, mirror buckets and rebuilt placements."""
    _, pfs = _checkpoint_run(trace=False)
    kinds = set()
    for key, _, _ in pfs._extent_bases:
        namespace, copy, born_on = parse_extent_key(key)
        assert extent_key(namespace, copy, born_on) == key
        assert parse_namespace(namespace) == ("shared.dat", 0)
        kinds.add((copy > 0, born_on is not None))
    assert kinds == {(False, False), (True, False), (False, True)}


if __name__ == "__main__":
    records = {run: capture(run) for run in RUNS}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(records)} golden records to {GOLDEN}\n")
