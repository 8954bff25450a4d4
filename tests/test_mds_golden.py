"""Golden parity of the default metadata service across every replay tier.

The values in ``tests/data/mds_golden.json`` were recorded on the build
that still had a second, unsharded metadata-server path. Every run below
uses the default ``Testbed`` MDS, so the test pins today's default (a
one-shard :class:`~repro.pfs.mds_cluster.MetadataCluster`) to those
recorded makespans, per-server busy times and device RNG states, bit for
bit, for the fig7 layout families (fixed 64K, random, HARL):

- ``des``: the MPI-IO rank programs of :func:`run_workload`, one DES
  process per request;
- ``event-heap``: a timed mixed read/write batch, which the columnar tier
  declines and the event-heap replay serves;
- ``columnar``: a single-op write batch on the columnar tier;

each with the client-side layout cache off and on.

Regenerate the file (only when a change is *meant* to move simulated
results) with ``PYTHONPATH=src python tests/test_mds_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.harness import Testbed, harl_plan, run_workload
from repro.pfs.batch import RequestBatch
from repro.pfs.layout import FixedLayout, RandomLayout, RegionLevelLayout
from repro.simulate.engine import Simulator
from repro.util.units import KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload

GOLDEN = Path(__file__).parent / "data" / "mds_golden.json"
TIERS = ("des", "event-heap", "columnar")
LAYOUTS = ("fixed64K", "random", "harl")
CACHE = (False, True)


class _RecordingTestbed(Testbed):
    """A testbed that keeps the last filesystem it built (for RNG states)."""

    __test__ = False
    pfs = None

    def build(self, sim):
        self.pfs = super().build(sim)
        return self.pfs


def _workload() -> IORWorkload:
    return IORWorkload(IORConfig(n_processes=4, request_size=64 * KiB, file_size=4 * MiB))


def _layout(name: str, testbed: Testbed, workload: IORWorkload):
    if name == "fixed64K":
        return FixedLayout(2, 2, 64 * KiB)
    if name == "random":
        return RandomLayout(2, 2, seed=1)
    return RegionLevelLayout(harl_plan(testbed, workload))


def _rng_digest(pfs) -> list[str]:
    return [
        hashlib.sha256(
            json.dumps(server.device.rng.bit_generator.state, sort_keys=True).encode()
        ).hexdigest()[:16]
        for server in pfs.servers
    ]


def _record(makespan: float, busy: dict[str, float], pfs) -> dict:
    return {
        "makespan": makespan.hex(),
        "busy": {name: value.hex() for name, value in sorted(busy.items())},
        "rng": _rng_digest(pfs),
    }


def _mixed_batch(workload: IORWorkload) -> RequestBatch:
    batch = workload.request_batch()
    is_read = batch.is_read.copy()
    is_read[::2] = True
    n = len(batch)
    return RequestBatch(
        offsets=batch.offsets,
        sizes=batch.sizes,
        is_read=is_read,
        issue_times=np.arange(n, dtype=np.float64) * 2.5e-5,
    )


def capture(tier: str, layout_name: str, cache: bool) -> dict:
    """Run one golden case on the default MDS; returns its record."""
    workload = _workload()
    testbed = _RecordingTestbed(n_hservers=2, n_sservers=2, seed=0, mds_cache=cache)
    layout = _layout(layout_name, testbed, workload)
    if tier == "des":
        result = run_workload(testbed, workload, layout, layout_name=layout_name)
        return _record(result.makespan, result.server_busy, testbed.pfs)
    sim = Simulator()
    pfs = testbed.build(sim)
    handle = pfs.create_file("shared.dat", layout)
    batch = _mixed_batch(workload) if tier == "event-heap" else workload.request_batch()
    sim.run(handle.request_batch(batch))
    assert pfs.batch_fallbacks == {}, pfs.batch_fallbacks
    assert pfs.batch_stats["fast_batches"] == 1
    assert pfs.batch_stats["fast_columnar_batches"] == (tier == "columnar")
    return _record(sim.now, pfs.server_busy_times(), pfs)


def _key(tier: str, layout_name: str, cache: bool) -> str:
    return f"{tier}/{layout_name}/cache={'on' if cache else 'off'}"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("cache", CACHE, ids=["cache-off", "cache-on"])
@pytest.mark.parametrize("layout_name", LAYOUTS)
@pytest.mark.parametrize("tier", TIERS)
def test_default_mds_matches_golden(golden, tier, layout_name, cache):
    assert capture(tier, layout_name, cache) == golden[_key(tier, layout_name, cache)]


if __name__ == "__main__":
    records = {
        _key(tier, layout_name, cache): capture(tier, layout_name, cache)
        for tier in TIERS
        for layout_name in LAYOUTS
        for cache in CACHE
    }
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(records)} golden records to {GOLDEN}\n")
