"""Golden calibrations: every Table-I parameter and probe-device RNG state.

The values in ``tests/data/calibrate_golden.json`` were recorded with the
scalar probe loop (one ``rng.integers`` draw and one ``service_time`` call
per probe). Each case calibrates from scratch and must reproduce every
:class:`~repro.core.params.CostModelParameters` field as ``float.hex``, bit
for bit, and leave each probe device with the same RNG state, head
position, GC counter and traffic counters:

- ``default``: the default 6H+2S testbed at the default probe sizes;
- ``hint-256K``: the probe-size bucket ``Testbed.parameters`` derives from a
  256 KiB ``request_hint``;
- ``positional-hdd`` / ``uniform-hdd``: a head-position HDD, and a
  non-positional HDD with wider startup bounds;
- ``gc-4M``: SSD garbage collection every 4 MiB written;
- ``gc-below-probe``: a 256 KiB GC window, below the largest probe, so a
  single write can reach a whole window;
- ``nic-1`` / ``seed-3``: one NIC flow, and another calibration seed.

Devices without a numpy service stream (a bare ``StorageDevice`` subclass,
or a model subclass that changes a formula) are checked against a
test-local copy of that scalar probe loop instead.

Regenerate the file (only when a change is *meant* to move calibration)
with ``PYTHONPATH=src python tests/test_calibrate_golden.py``.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from repro.devices.base import OpType, StorageDevice
from repro.devices.hdd import HDDModel
from repro.devices.ssd import SSDModel
from repro.experiments.calibrate import (
    DEFAULT_PROBE_SIZES,
    calibrate_device,
    calibrate_parameters,
    calibrate_profile,
)
from repro.util.rng import derive_rng
from repro.util.units import GiB, KiB, MiB

GOLDEN = Path(__file__).parent / "data" / "calibrate_golden.json"

#: ``Testbed.parameters``' probe bucket for a 256 KiB request hint.
_HINT_PROBES = (64 * KiB, 128 * KiB, 256 * KiB, 512 * KiB)

CASES = {
    "default": {},
    "hint-256K": {"probe_sizes": _HINT_PROBES},
    "positional-hdd": {"hdd_kwargs": {"positional": True}},
    "uniform-hdd": {"hdd_kwargs": {"positional": False, "alpha_max": 6.0e-4}},
    "gc-4M": {"ssd_kwargs": {"gc_window": 4 * MiB}},
    "gc-below-probe": {"ssd_kwargs": {"gc_window": 256 * KiB, "gc_pause": 3.0e-4}},
    "nic-1": {"nic_parallelism": 1},
    "seed-3": {"seed": 3},
}


def _hex(value):
    return value.hex() if isinstance(value, float) else value


def _params(params) -> dict:
    out = {
        "n_hservers": params.n_hservers,
        "n_sservers": params.n_sservers,
        "unit_network_time": params.unit_network_time.hex(),
    }
    for name in ("hserver", "sserver"):
        profile = getattr(params, name)
        out[name] = {f.name: _hex(getattr(profile, f.name)) for f in fields(profile)}
    return out


def _device_state(device) -> dict:
    state = json.dumps(device.rng.bit_generator.state, sort_keys=True)
    return {
        "rng": hashlib.sha256(state.encode()).hexdigest()[:32],
        "head": getattr(device, "_head_position", None),
        "gc": getattr(device, "_bytes_since_gc", None),
        "bytes_read": device.bytes_read,
        "bytes_written": device.bytes_written,
        "requests": device.requests_served,
    }


def _case(spec: dict) -> dict:
    seed = spec.get("seed", 0)
    probe_sizes = spec.get("probe_sizes", DEFAULT_PROBE_SIZES)
    hdd_kwargs = spec.get("hdd_kwargs", {})
    ssd_kwargs = spec.get("ssd_kwargs", {})
    params = calibrate_parameters(
        6,
        2,
        hdd_kwargs=hdd_kwargs,
        ssd_kwargs=ssd_kwargs,
        probe_sizes=probe_sizes,
        seed=seed,
        nic_parallelism=spec.get("nic_parallelism", 4),
    )
    # The probe devices as calibrate_parameters builds them, probed again
    # the same way, to expose their end state.
    hdd = HDDModel(seed=derive_rng(seed, "probe-hdd"), name="probe-hdd", **hdd_kwargs)
    ssd = SSDModel(seed=derive_rng(seed, "probe-ssd"), name="probe-ssd", **ssd_kwargs)
    assert calibrate_profile(hdd, probe_sizes, 200, seed, label="hserver") == params.hserver
    assert calibrate_profile(ssd, probe_sizes, 200, seed, label="sserver") == params.sserver
    return {"params": _params(params), "hdd": _device_state(hdd), "ssd": _device_state(ssd)}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("name", sorted(CASES))
def test_calibration_matches_golden(golden, name):
    assert _case(CASES[name]) == golden[name]


def test_golden_covers_every_case(golden):
    assert sorted(golden) == sorted(CASES)


class _PMem(StorageDevice):
    """A new device kind: only the two abstract formulas."""

    def startup_time(self, op, offset, size):
        return float(self.rng.uniform(1e-6, 3e-6))

    def transfer_time(self, op, size):
        return size * (2.5e-10 if op is OpType.READ else 4.0e-10)


class _FlatSSD(SSDModel):
    """A model subclass changing a formula the SSD's numpy stream inlines."""

    def _channel_speedup(self, size):
        return 1.0


def _scalar_calibrate(device, op, probe_sizes, repeats=200, seed=0, extent=4 * GiB):
    """``calibrate_device`` as a scalar loop: one draw and one
    ``service_time`` call per probe, then the same fit."""
    rng = derive_rng(seed, "calibrate", device.name, op.value)
    sizes, times = [], []
    for size in probe_sizes:
        for _ in range(repeats):
            offset = int(rng.integers(0, max(1, extent - size)))
            times.append(device.service_time(op, offset, size))
            sizes.append(size)
    sizes_arr = np.asarray(sizes, dtype=np.float64)
    times_arr = np.asarray(times, dtype=np.float64)
    design = np.column_stack([np.ones_like(sizes_arr), sizes_arr])
    (_, beta), *_ = np.linalg.lstsq(design, times_arr, rcond=None)
    beta = max(beta, 1e-15)
    startups = times_arr - beta * sizes_arr
    alpha_min = float(max(0.0, np.percentile(startups, 1.0)))
    alpha_max = float(max(alpha_min, np.percentile(startups, 99.0)))
    return alpha_min, alpha_max, float(beta)


@pytest.mark.parametrize(
    "make",
    [
        lambda: _PMem(seed=5, name="pmem"),
        lambda: _FlatSSD(seed=5, name="flat-ssd", gc_window=256 * KiB),
    ],
    ids=["bare-device", "model-subclass"],
)
def test_devices_without_a_numpy_stream_calibrate_as_the_scalar_loop(make):
    device, ref = make(), make()
    assert not device.batchable
    for op in (OpType.READ, OpType.WRITE):
        got = calibrate_device(device, op, DEFAULT_PROBE_SIZES, 200, 0)
        want = _scalar_calibrate(ref, op, DEFAULT_PROBE_SIZES)
        assert [v.hex() for v in got] == [v.hex() for v in want]
    assert _device_state(device) == _device_state(ref)
    profile = calibrate_profile(make(), label="custom")
    assert profile.beta_read > 0 and profile.beta_write > 0


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: _case(spec) for name, spec in sorted(CASES.items())}, indent=1) + "\n"
    )
    print(f"wrote {GOLDEN}", file=sys.stderr)
