"""Parameter calibration by probing (the paper's Analysis-Phase measurement).

Sec. III-G: "we use one file server in the parallel file system to test the
startup time α and data transfer time β for HServers and SServers with
read/write patterns … We repeat the tests thousands of times … and then
calculate their average values."

We do the same against the simulated devices: issue probe requests of
several sizes at random offsets, fit ``time = α + β·size`` by least squares
(slope → β), then recover the per-probe startup residuals and take their
extremes as (α_min, α_max). The planner therefore sees only *measured*
behaviour — GC stalls and channel effects fold into the fitted β — never
the device models' internal constants.
"""

from __future__ import annotations

import numpy as np

from repro.core.params import CostModelParameters
from repro.devices.base import OpType, StorageDevice
from repro.devices.hdd import HDDModel
from repro.devices.profiles import DeviceProfile
from repro.devices.ssd import SSDModel
from repro.network.link import NetworkModel
from repro.util.rng import derive_rng
from repro.util.units import GiB, KiB

#: Default probe request sizes, spanning the stripe-size grid's range.
DEFAULT_PROBE_SIZES: tuple[int, ...] = (4 * KiB, 16 * KiB, 64 * KiB, 256 * KiB, 1024 * KiB)


def calibrate_device(
    device: StorageDevice,
    op: OpType | str,
    probe_sizes: tuple[int, ...] = DEFAULT_PROBE_SIZES,
    repeats: int = 200,
    seed: int = 0,
    extent: int = 4 * GiB,
) -> tuple[float, float, float]:
    """Measure (α_min, α_max, β) of one device for one op type.

    Returns startup bounds (seconds) and per-byte transfer time (s/B). The
    probes run through one :meth:`~repro.devices.base.StorageDevice.service_batch`
    call (one numpy pass on a batchable model, the scalar calls on any
    other), which equals the scalar probe sequence bit for bit and leaves
    the device in the same state.
    """
    op = OpType.parse(op)
    if repeats < 2:
        raise ValueError(f"repeats must be >= 2, got {repeats}")
    if len(probe_sizes) < 2:
        raise ValueError("need at least two probe sizes to fit a slope")
    rng = derive_rng(seed, "calibrate", device.name, op.value)

    # One vector draw per probe size is the scalar draws' stream, and one
    # device batch serves every probe in the scalar loop's order.
    offsets = np.concatenate(
        [rng.integers(0, max(1, extent - size), repeats) for size in probe_sizes]
    )
    sizes = np.repeat(np.asarray(probe_sizes, dtype=np.int64), repeats)
    batch = device.service_batch(op is OpType.READ, offsets, sizes)
    batch.commit()
    sizes_arr = sizes.astype(np.float64)
    times_arr = batch.startup + batch.transfer

    design = np.column_stack([np.ones_like(sizes_arr), sizes_arr])
    (_, beta), *_ = np.linalg.lstsq(design, times_arr, rcond=None)
    beta = max(beta, 1e-15)  # Guard against degenerate fits on tiny probes.

    # Startup bounds from residual percentiles rather than extremes: rare
    # GC stalls would otherwise blow up α_max and make the planner shun
    # SServers for writes — real calibration averages thousands of probes
    # (Sec. III-G) for the same robustness.
    startups = times_arr - beta * sizes_arr
    alpha_min = float(max(0.0, np.percentile(startups, 1.0)))
    alpha_max = float(max(alpha_min, np.percentile(startups, 99.0)))
    return alpha_min, alpha_max, float(beta)


def calibrate_profile(
    device: StorageDevice,
    probe_sizes: tuple[int, ...] = DEFAULT_PROBE_SIZES,
    repeats: int = 200,
    seed: int = 0,
    label: str | None = None,
) -> DeviceProfile:
    """Measure a full read+write :class:`DeviceProfile` for one device."""
    r_lo, r_hi, beta_r = calibrate_device(device, OpType.READ, probe_sizes, repeats, seed)
    w_lo, w_hi, beta_w = calibrate_device(device, OpType.WRITE, probe_sizes, repeats, seed)
    return DeviceProfile(
        read_alpha_min=r_lo,
        read_alpha_max=r_hi,
        write_alpha_min=w_lo,
        write_alpha_max=w_hi,
        beta_read=beta_r,
        beta_write=beta_w,
        label=label or f"measured:{device.name}",
    )


def calibrate_network(
    network: NetworkModel, probe_size: int = 1024 * KiB, concurrent_flows: int = 1
) -> float:
    """Estimate the unit network time ``t`` from two probe transfers.

    Mirrors the paper's client↔server pair measurement; the two-point slope
    removes the per-message latency from the estimate. ``concurrent_flows``
    reflects the server NIC's sustained flow parallelism (full-duplex +
    pipelined streams): the *effective* per-byte time a sub-request sees on
    a loaded server is the single-flow time divided by that parallelism,
    which is what the cost model's ``T_X`` should charge.
    """
    if concurrent_flows < 1:
        raise ValueError(f"concurrent_flows must be >= 1, got {concurrent_flows}")
    small = network.transfer_time(probe_size // 2)
    large = network.transfer_time(probe_size)
    return (large - small) / (probe_size - probe_size // 2) / concurrent_flows


def _calibrate_profile_job(
    job: tuple[str, dict, tuple[int, ...], int, int, str],
) -> DeviceProfile:
    """Probe one device class end to end (module-level, pool-picklable).

    The whole read-then-write profile of one device is a single job: the
    probe device's RNG advances across both passes, so splitting per op
    would change the write-pass draws and break serial/parallel equality.
    """
    kind, device_kwargs, probe_sizes, repeats, seed, label = job
    if kind == "hdd":
        device: StorageDevice = HDDModel(
            seed=derive_rng(seed, "probe-hdd"), name="probe-hdd", **device_kwargs
        )
    else:
        device = SSDModel(
            seed=derive_rng(seed, "probe-ssd"), name="probe-ssd", **device_kwargs
        )
    return calibrate_profile(device, probe_sizes, repeats, seed, label=label)


def calibrate_parameters(
    n_hservers: int,
    n_sservers: int,
    network: NetworkModel | None = None,
    hdd_kwargs: dict | None = None,
    ssd_kwargs: dict | None = None,
    probe_sizes: tuple[int, ...] = DEFAULT_PROBE_SIZES,
    repeats: int = 200,
    seed: int = 0,
    nic_parallelism: int = 1,
    jobs: int | None = None,
) -> CostModelParameters:
    """Measure the full Table-I bundle against fresh probe devices.

    Probe devices are constructed with the same parameters as the testbed's
    servers (the paper probes one live server per class); fresh instances
    keep probing from perturbing experiment state. ``nic_parallelism`` is
    the testbed servers' NIC flow parallelism, folded into the effective
    unit network time (see :func:`calibrate_network`). ``jobs`` fans the
    per-class probing across processes (each class' device is independently
    seeded, so results match serial execution exactly).
    """
    from repro.experiments.parallel import pmap

    network = network or NetworkModel()
    profile_jobs = [
        ("hdd", dict(hdd_kwargs or {}), tuple(probe_sizes), repeats, seed, "hserver"),
        ("ssd", dict(ssd_kwargs or {}), tuple(probe_sizes), repeats, seed, "sserver"),
    ]
    hserver, sserver = pmap(_calibrate_profile_job, profile_jobs, jobs=jobs)
    return CostModelParameters(
        n_hservers=n_hservers,
        n_sservers=n_sservers,
        unit_network_time=calibrate_network(network, concurrent_flows=nic_parallelism),
        hserver=hserver,
        sserver=sserver,
    )
