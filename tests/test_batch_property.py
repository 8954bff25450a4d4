"""Property-based parity: batched replay vs the general path, any workload.

Hypothesis drives the batched executor across the full input surface —
every workload generator's batch shape, mixed ops, issue times, replication
and integrity on or off, one- and multi-shard metadata clusters, client-side
layout cache on or off — and asserts the strongest equivalence the
executor promises: the fast path (whichever tier serves it, columnar or
event-heap) leaves the cluster in the *bit-identical* state the general
per-request path would have: same makespan and per-request elapsed array,
same per-resource busy-time floats, same device RNG states, same CRC tag
tables.

Example counts are deliberately small (each example runs two full
simulations); the grids in ``test_batch_exec.py`` cover the deterministic
edge cases, this file covers the combinatorial middle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.rst import RegionStripeTable, RSTEntry
from repro.devices.base import OpType
from repro.pfs.batch import RequestBatch
from repro.pfs.filesystem import HybridPFS
from repro.pfs.layout import FixedLayout, RegionLevelLayout
from repro.pfs.mds_cluster import MetadataCluster
from repro.pfs.mapping import StripingConfig
from repro.simulate.engine import Simulator
from repro.util.units import KiB
from repro.workloads.btio import BTIOConfig, BTIOWorkload
from repro.workloads.checkpoint import CheckpointConfig, CheckpointN1Workload
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.replay import ReplayConfig, TraceReplayWorkload
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload
from repro.workloads.traces import TraceRecord

# ---------------------------------------------------------------------------
# Workload strategies: one small instance of each of the five generators
# ---------------------------------------------------------------------------


@st.composite
def _ior_batches(draw):
    request_size = draw(st.sampled_from((16 * KiB, 64 * KiB, 96 * KiB)))
    per_rank = draw(st.integers(min_value=2, max_value=6))
    n_processes = draw(st.sampled_from((2, 4)))
    cfg = IORConfig(
        n_processes=n_processes,
        request_size=request_size,
        file_size=n_processes * per_rank * request_size,
        op=draw(st.sampled_from((OpType.READ, OpType.WRITE))),
        random_offsets=draw(st.booleans()),
        seed=draw(st.integers(min_value=0, max_value=9)),
    )
    return IORWorkload(cfg).request_batch()


@st.composite
def _checkpoint_batches(draw):
    request_size = draw(st.sampled_from((16 * KiB, 64 * KiB)))
    cfg = CheckpointConfig(
        n_processes=draw(st.integers(min_value=1, max_value=4)),
        state_per_process=request_size * draw(st.integers(min_value=1, max_value=4)),
        request_size=request_size,
        rounds=draw(st.integers(min_value=1, max_value=2)),
    )
    return CheckpointN1Workload(cfg).request_batch()


@st.composite
def _btio_batches(draw):
    cfg = BTIOConfig(
        n_processes=4,
        grid=draw(st.sampled_from((8, 16))),
        timesteps=draw(st.sampled_from((5, 10))),
        write_interval=5,
        read_back=draw(st.booleans()),
        n_aggregators=draw(st.sampled_from((2, 4))),
    )
    return BTIOWorkload(cfg).request_batch()


@st.composite
def _synthetic_batches(draw):
    n_regions = draw(st.integers(min_value=1, max_value=3))
    regions = [
        RegionSpec(
            size=(rs := draw(st.sampled_from((16 * KiB, 64 * KiB, 256 * KiB))))
            * draw(st.integers(min_value=1, max_value=4)),
            request_size=rs,
        )
        for _ in range(n_regions)
    ]
    workload = SyntheticRegionWorkload(
        regions,
        n_processes=draw(st.sampled_from((1, 2, 4))),
        op=draw(st.sampled_from((OpType.READ, OpType.WRITE))),
        seed=draw(st.integers(min_value=0, max_value=9)),
    )
    return workload.request_batch()


@st.composite
def _replay_batches(draw):
    n = draw(st.integers(min_value=1, max_value=24))
    records = []
    for i in range(n):
        records.append(
            TraceRecord(
                pid=1,
                rank=draw(st.integers(min_value=0, max_value=3)),
                fd=3,
                op=draw(st.sampled_from((OpType.READ, OpType.WRITE))),
                offset=draw(st.integers(min_value=0, max_value=2 * 1024 * 1024)),
                size=draw(st.integers(min_value=1, max_value=256 * KiB)),
                timestamp=draw(
                    st.floats(min_value=0.0, max_value=0.01, allow_nan=False)
                ),
            )
        )
    config = ReplayConfig(preserve_think_time=draw(st.booleans()))
    return TraceReplayWorkload(records, config).request_batch()


_batches = st.one_of(
    _ior_batches(),
    _checkpoint_batches(),
    _btio_batches(),
    _synthetic_batches(),
    _replay_batches(),
)


@st.composite
def _scenarios(draw):
    """A batch (possibly remixed) + cluster/layout knobs."""
    batch = draw(_batches)
    n = len(batch)
    is_read = batch.is_read
    if draw(st.booleans()):  # remix ops so single-op generators also go mixed
        flips = draw(
            st.lists(st.booleans(), min_size=n, max_size=n).map(np.asarray)
        )
        is_read = np.logical_xor(is_read, flips)
    issue_times = batch.issue_times
    if issue_times is None and draw(st.booleans()):
        issue_times = np.round(
            np.asarray(
                draw(
                    st.lists(
                        st.floats(min_value=0.0, max_value=0.005, allow_nan=False),
                        min_size=n,
                        max_size=n,
                    )
                )
            ),
            6,
        )
    batch = RequestBatch(
        offsets=batch.offsets, sizes=batch.sizes, is_read=is_read, issue_times=issue_times
    )
    replicas = draw(st.sampled_from((1, 2)))
    if draw(st.booleans()):
        layout = FixedLayout(2, 1, 64 * KiB, replicas=replicas)
    else:
        rst = RegionStripeTable(
            [
                RSTEntry(
                    region_id=0,
                    offset=0,
                    end=1024 * 1024,
                    config=StripingConfig(2, 1, 16 * KiB, 64 * KiB),
                ),
                RSTEntry(
                    region_id=1,
                    offset=1024 * 1024,
                    end=None,
                    config=StripingConfig(2, 1, 64 * KiB, 64 * KiB),
                ),
            ]
        )
        layout = RegionLevelLayout(rst, replicas={0: replicas})
    integrity = draw(st.booleans())
    shards = draw(st.sampled_from((1, 2, 4)))
    routing = draw(st.sampled_from(("finger", "linear")))
    cache = draw(st.booleans())
    nic = draw(st.sampled_from((1, 2, 4, 8)))
    return batch, layout, integrity, shards, routing, cache, nic


def _run(batch, layout, integrity, shards, routing, cache, nic, force_general):
    sim = Simulator()
    mds = MetadataCluster(shards, routing=routing, seed=0)
    pfs = HybridPFS.build(
        sim, 2, 1, seed=0, mds=mds, mds_cache=cache, nic_parallelism=nic
    )
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
        "rng": [s.device.rng.bit_generator.state for s in pfs.servers],
        "bytes": [s.bytes_served for s in pfs.servers],
        "subreqs": [s.subrequests_served for s in pfs.servers],
        "tags": [
            None if s.checksums is None else dict(s.checksums._tags)
            for s in pfs.servers
        ],
        "mirrored": None if pfs.integrity is None else pfs.integrity.mirrored_writes,
        "lookups": pfs.mds.lookup_count,
        "cluster": pfs.mds.cluster_counters(),
        "shard_lookups": [s.lookup_count for s in pfs.mds.shards],
        "cache": None if pfs.mds_cache is None else pfs.mds_cache.counters(),
    }, dict(pfs.batch_stats), dict(pfs.batch_fallbacks)


# Ring-hop stagger can land two planned MDS entries on the same instant with
# different arrival ranks; the planner refuses to guess FIFO order and bails
# to the general path. Only these tie reasons are acceptable fallbacks.
_TIE_BAILS = {"mds-fill-tie", "mds-entry-tie"}


@given(_scenarios())
@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_batched_replay_matches_general_path(scenario):
    batch, _, _, shards, _, cache, _ = scenario
    fast, fast_stats, fast_falls = _run(*scenario, force_general=False)
    general, general_stats, _ = _run(*scenario, force_general=True)
    if batch.issue_times is not None and (shards or cache):
        assert fast_stats["fast_batches"] == 1 or set(fast_falls) <= _TIE_BAILS
    else:
        assert fast_stats["fast_batches"] == 1
    assert general_stats["general_batches"] == 1
    np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])
    del fast["elapsed"], general["elapsed"]
    assert fast == general


@pytest.mark.parametrize("nic", [1, 2, 4, 8])
@pytest.mark.parametrize("op", [OpType.WRITE, OpType.READ])
def test_uneven_single_op_batch_runs_columnar(op, nic):
    """Region-level striping with h != s gives each server sub-requests of
    several sizes; single-op batches of that shape replay on the columnar
    tier at every NIC width, bit-identical to the general path."""
    workload = SyntheticRegionWorkload(
        [RegionSpec(size=960 * KiB, request_size=96 * KiB),
         RegionSpec(size=1000 * KiB, request_size=40 * KiB)],
        n_processes=4,
        op=op,
        seed=1,
    )
    batch = workload.request_batch()
    rst = RegionStripeTable(
        [
            RSTEntry(region_id=0, offset=0, end=1024 * 1024,
                     config=StripingConfig(2, 1, 16 * KiB, 64 * KiB)),
            RSTEntry(region_id=1, offset=1024 * 1024, end=None,
                     config=StripingConfig(2, 1, 8 * KiB, 24 * KiB)),
        ]
    )
    scenario = (batch, RegionLevelLayout(rst), False, 1, "finger", False, nic)
    fast, fast_stats, fast_falls = _run(*scenario, force_general=False)
    general, _, _ = _run(*scenario, force_general=True)
    assert fast_falls == {}
    assert fast_stats["fast_columnar_batches"] == 1
    np.testing.assert_array_equal(fast["elapsed"], general["elapsed"])
    del fast["elapsed"], general["elapsed"]
    assert fast == general
