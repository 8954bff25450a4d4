"""Golden Algorithm 2 plans: stripe choices and bit-exact modeled costs.

The values in ``tests/data/plan_golden.json`` were recorded with the dense
(candidates × requests × servers) cost evaluation that the server-loop
striping kernel replaced. Every case below re-plans from scratch (the
stripe cache is cleared first) and must reproduce the recorded (h, s) per
region, the merged RST and every cost as ``float.hex``, bit for bit:

- ``fig11/<op>/seed=<n>``: Fig. 11's four regions at a quarter of each
  region's slots on 6H+2S at the paper's 4 KiB step, seeds 0-2;
- ``ior-fixed``: an IOR-like fixed-size write plan;
- ``space-budgets``: a plan under per-server capacity budgets;
- ``no-hservers``: a degraded plan with every HServer down;
- ``uniform``: the segment-level baseline, whose uniform-stripe search
  evaluates one candidate per call;
- ``grid``: full two-class and K-class cost vectors over a stripe grid.
  Both cost models share one summing routine, so the two digests are
  equal. The K-class digest is the one recorded value that moved: the
  K-class model used to add each candidate's requests pairwise, and its
  sums differed from the two-class sums by up to 5 ulp;
- ``multiclass-3tier``: the coordinate-descent search over three tiers;
- ``large-requests``: 2-3 GiB requests at offsets above ``2**32`` on a
  128 MiB grid, so every round size plus request size exceeds ``2**31``
  and the cost kernel runs in int64; its choice and cost grid were
  recorded before the kernel learned to narrow to int32.

Regenerate the file (only when a change is *meant* to move planner
results) with ``PYTHONPATH=src python tests/test_plan_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.baselines import plan_segment_level
from repro.core.cost_model import total_cost_vectorized
from repro.core.multiclass import (
    MultiTierParameters,
    TierSpec,
    determine_stripes_multiclass,
    multiclass_total_cost,
)
from repro.core.planner import HARLPlanner
from repro.core.stripe_determination import clear_stripe_cache, determine_stripes
from repro.devices.profiles import DeviceProfile
from repro.experiments.harness import Testbed, harl_plan
from repro.util.units import GiB, KiB, MiB
from repro.workloads.ior import IORConfig, IORWorkload
from repro.workloads.synthetic import RegionSpec, SyntheticRegionWorkload
from repro.workloads.traces import trace_arrays

GOLDEN = Path(__file__).parent / "data" / "plan_golden.json"
STEP = 4 * KiB
FIG11_REGIONS = ((256 * MiB, 64 * KiB), (1024 * MiB, 1024 * KiB),
                 (2048 * MiB, 256 * KiB), (4096 * MiB, 512 * KiB))
NVME = DeviceProfile(
    read_alpha_min=5e-6, read_alpha_max=2e-5,
    write_alpha_min=1e-5, write_alpha_max=3e-5,
    beta_read=5e-10, beta_write=8e-10, label="nvme",
)


def _testbed() -> Testbed:
    return Testbed(n_hservers=6, n_sservers=2, seed=0)


def _fig11(op: str, seed: int = 0, coverage: float = 0.25) -> SyntheticRegionWorkload:
    regions = [RegionSpec(size, request, coverage=coverage) for size, request in FIG11_REGIONS]
    return SyntheticRegionWorkload(regions, n_processes=16, op=op, seed=seed)


def _params(testbed: Testbed, trace):
    return testbed.parameters(request_hint=int(sum(r.size for r in trace) / len(trace)))


def _rst(rst) -> list:
    return [[entry.offset, *entry.config.stripes] for entry in rst.entries]


def _report(report) -> list:
    return [[c.hstripe, c.sstripe, c.cost.hex()] for c in report.choices]


def _digest(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()[:32]


def _planned(planner: HARLPlanner, trace, **kwargs) -> dict:
    rst = planner.plan(trace, **kwargs)
    return {"regions": _report(planner.last_report), "rst": _rst(rst)}


def _harl(workload) -> dict:
    """The harness's HARL plan: calibrated parameters, 4 KiB step."""
    reports: list = []
    rst = harl_plan(_testbed(), workload, step=STEP, report_sink=reports)
    return {"regions": _report(reports[0]), "rst": _rst(rst)}


def _space_case() -> dict:
    trace = _fig11("write", coverage=0.02).synthetic_trace()
    planner = HARLPlanner(
        _params(_testbed(), trace), step=STEP, space_budgets=(1200 * MiB, 600 * MiB)
    )
    return _planned(planner, trace)


def _no_hservers_case() -> dict:
    trace = _fig11("read", coverage=0.05).synthetic_trace()
    planner = HARLPlanner(_params(_testbed(), trace), step=STEP)
    return _planned(planner, trace, availability=[False] * 6 + [True] * 2)


def _uniform_case() -> dict:
    workload = SyntheticRegionWorkload(
        [RegionSpec(8 * MiB, 64 * KiB), RegionSpec(16 * MiB, 1024 * KiB)], n_processes=8, op="write"
    )
    trace = workload.synthetic_trace()
    params = _params(_testbed(), trace)
    rst = plan_segment_level(params, trace, segment_size=8 * MiB, step=16 * KiB)
    offsets, sizes, is_read = trace_arrays(trace)
    offsets = offsets - offsets.min()
    costs = [
        float(total_cost_vectorized(params, offsets, sizes, is_read, stripe,
                                    np.array([stripe], dtype=np.int64))[0]).hex()
        for stripe in range(16 * KiB, 1024 * KiB + 1, 16 * KiB)
    ]
    return {"rst": _rst(rst), "costs": costs}


def _region_requests(seed: int = 0):
    """The 1 MiB-request region of a mixed Fig. 11 trace, rebased."""
    trace = _fig11("write", seed, coverage=0.05).synthetic_trace()
    offsets, sizes, is_read = trace_arrays(trace)
    is_read[::3] = True
    keep = sizes == 1024 * KiB
    offsets = offsets[keep][:200]
    return offsets - offsets.min(), sizes[keep][:200], is_read[keep][:200], trace


def _grid_case() -> dict:
    offsets, sizes, is_read, trace = _region_requests()
    params = _params(_testbed(), trace)
    two = MultiTierParameters(
        (TierSpec(6, params.hserver), TierSpec(2, params.sserver)), params.unit_network_time
    )
    pairs, two_class, k_class = [], [], []
    for h in range(0, 1024 * KiB + 1, 32 * KiB):
        s = np.arange(0 if h else STEP, 1024 * KiB + 1, 8 * KiB, dtype=np.int64)
        two_class.append(total_cost_vectorized(params, offsets, sizes, is_read, h, s))
        matrix = np.column_stack([np.full(s.shape, h, dtype=np.int64), s])
        k_class.append(multiclass_total_cost(two, offsets, sizes, is_read, matrix))
        pairs.append(two_class[-1][::16])
    return {
        "two_class": _digest(*two_class),
        "k_class": _digest(*k_class),
        "sample": [float(c).hex() for c in np.concatenate(pairs)],
    }


def _multiclass_case() -> dict:
    offsets, sizes, is_read, trace = _region_requests(seed=1)
    params = _params(_testbed(), trace)
    tiers = MultiTierParameters(
        (TierSpec(2, NVME), TierSpec(2, params.sserver), TierSpec(4, params.hserver)),
        params.unit_network_time,
    )
    choice = determine_stripes_multiclass(tiers, offsets, sizes, is_read, step=STEP)
    return {"stripes": list(choice.stripes), "cost": choice.cost.hex()}


def _large_case() -> dict:
    rng = np.random.default_rng(5)
    sizes = rng.integers(2 * GiB, 3 * GiB, 24).astype(np.int64)
    gaps = rng.integers(0, 64 * MiB, 24).astype(np.int64)
    offsets = 2**32 + 4097 + np.concatenate([[0], np.cumsum(sizes + gaps)[:-1]])
    is_read = np.zeros(24, dtype=bool)
    is_read[::3] = True
    params = _testbed().parameters()
    step = 128 * MiB
    choice = determine_stripes(params, offsets, sizes, is_read, step=step)
    costs = [
        total_cost_vectorized(params, offsets, sizes, is_read, h,
                              np.arange(h + step, 3 * GiB + 1, step, dtype=np.int64))
        for h in range(0, 3 * GiB, 512 * MiB)
    ]
    return {
        "choice": [choice.hstripe, choice.sstripe, choice.cost.hex()],
        "costs": _digest(*costs),
        "sample": [float(c).hex() for c in np.concatenate([c[::4] for c in costs])],
    }


CASES = {
    **{
        f"fig11/{op}/seed={seed}": (lambda op=op, seed=seed: _harl(_fig11(op, seed)))
        for op in ("write", "read")
        for seed in (0, 1, 2)
    },
    "ior-fixed": lambda: _harl(
        IORWorkload(IORConfig(n_processes=16, request_size=384 * KiB, file_size=96 * MiB))
    ),
    "space-budgets": _space_case,
    "no-hservers": _no_hservers_case,
    "uniform": _uniform_case,
    "grid": _grid_case,
    "multiclass-3tier": _multiclass_case,
    "large-requests": _large_case,
}


def capture(name: str) -> dict:
    """Plan one golden case from a cold stripe cache; returns its record."""
    clear_stripe_cache()
    return CASES[name]()


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", list(CASES))
def test_plan_matches_golden(golden, name):
    assert capture(name) == golden[name]


if __name__ == "__main__":
    records = {name: capture(name) for name in CASES}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    sys.stdout.write(f"wrote {len(records)} golden records to {GOLDEN}\n")
