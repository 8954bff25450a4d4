"""``planning_trace`` is the columnized, offset-sorted ``synthetic_trace()``.

The harness plans from ``planning_trace(workload)``: the workload's own
``trace_columns()`` when it has one, else its sorted, columnized
``synthetic_trace()``. For every workload generator it must equal
``trace_arrays(sort_trace(synthetic_trace()))``, the columns the planners
built before. The Fig. 11 workload builds them from its slot columns
without any records, and its record trace is derived from those same
columns. A duck-typed workload with only ``synthetic_trace()`` still plans.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.devices.base import OpType
from repro.experiments.harness import Testbed, harl_plan
from repro.util.units import KiB, MiB
from repro.workloads.btio import BTIOConfig, BTIOWorkload
from repro.workloads.checkpoint import CheckpointConfig, CheckpointN1Workload
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.metadata import MetadataConfig, MetadataWorkload
from repro.workloads.replay import TraceReplayWorkload
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload
from repro.workloads.temporal import PhaseSpec, TemporalPhaseWorkload
from repro.workloads.traces import TraceRecord, planning_trace, sort_trace, trace_arrays


def _replay():
    rng = np.random.default_rng(4)
    records = [
        TraceRecord(
            pid=1, rank=int(rng.integers(0, 4)), fd=3,
            op=OpType.READ if rng.random() < 0.5 else OpType.WRITE,
            offset=int(rng.integers(0, 8)) * 64 * KiB,  # repeated offsets: ties by time
            size=int(rng.integers(1, 256 * KiB)), timestamp=float(rng.random()),
        )
        for _ in range(64)
    ]
    return TraceReplayWorkload(records)


WORKLOADS = {
    "ior": lambda: IORWorkload(
        IORConfig(n_processes=4, request_size=64 * KiB, file_size=4 * MiB,
                  random_offsets=True, seed=2)
    ),
    "btio": lambda: BTIOWorkload(BTIOConfig(n_processes=4, grid=16, timesteps=10)),
    "checkpoint": lambda: CheckpointN1Workload(
        CheckpointConfig(n_processes=4, state_per_process=256 * KiB,
                         request_size=64 * KiB, rounds=2)
    ),
    "metadata": lambda: MetadataWorkload(MetadataConfig(n_ops=64, n_processes=4)),
    "replay": _replay,
    "temporal": lambda: TemporalPhaseWorkload(
        [PhaseSpec(128 * KiB, 8, "read"), PhaseSpec(1024 * KiB, 4, "write")], n_processes=4
    ),
    "synthetic": lambda: SyntheticRegionWorkload(
        [RegionSpec(4 * MiB, 64 * KiB), RegionSpec(8 * MiB, 1024 * KiB, coverage=0.5),
         RegionSpec(4 * MiB, 256 * KiB)],
        n_processes=6, op="read", seed=3,
    ),
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_planning_trace_is_the_sorted_trace(name):
    workload = WORKLOADS[name]()
    got = planning_trace(workload)
    want = trace_arrays(sort_trace(workload.synthetic_trace()))
    assert got.offsets.dtype == np.int64 and got.sizes.dtype == np.int64
    assert got.is_read.dtype == bool
    for column, expected in zip(got, want):
        np.testing.assert_array_equal(column, expected)


def test_synthetic_trace_ranks_follow_the_round_robin_shares():
    """Slot i belongs to rank i mod P, as ``rank_requests`` deals them."""
    workload = WORKLOADS["synthetic"]()
    owner = {
        offset: rank
        for rank in range(workload.n_processes)
        for _, offset, _ in workload.rank_requests(rank)
    }
    trace = workload.synthetic_trace()
    assert len(trace) == len(owner)
    assert all(owner[record.offset] == record.rank for record in trace)


class _RecordsOnly:
    """A workload adapter with only the documented duck-typed members."""

    def __init__(self, inner):
        self.n_processes = inner.n_processes
        self.synthetic_trace = inner.synthetic_trace


def test_workload_without_trace_columns_plans_the_same():
    workload = WORKLOADS["synthetic"]()
    adapter = _RecordsOnly(workload)
    assert not hasattr(adapter, "trace_columns")
    want = harl_plan(Testbed(n_hservers=2, n_sservers=1, seed=0), workload)
    got = harl_plan(Testbed(n_hservers=2, n_sservers=1, seed=0), adapter)
    assert got.entries == want.entries
