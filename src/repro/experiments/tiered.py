"""Multi-tier experiment harness (the >2-profile extension's testbeds).

A :class:`TieredTestbed` describes an ordered list of server tiers, each a
device kind plus overrides — e.g. a three-tier NVMe / SATA-SSD / HDD
cluster. It builds :class:`~repro.pfs.tiered.TieredPFS` instances for runs
and calibrates a :class:`~repro.core.multiclass.MultiTierParameters` bundle
by probing one device per tier, mirroring the two-class pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.multiclass import MultiTierParameters, MultiTierPlanner, TierSpec
from repro.core.rst import RegionStripeTable
from repro.devices.base import StorageDevice
from repro.devices.hdd import HDDModel
from repro.devices.ssd import SSDModel
from repro.experiments.calibrate import calibrate_network, calibrate_profile
from repro.network.link import NetworkModel
from repro.pfs.tiered import TieredPFS
from repro.simulate.engine import Simulator
from repro.util.rng import derive_rng
from repro.workloads.traces import planning_trace

#: Device-kind registry for tier specs.
DEVICE_KINDS = {"hdd": HDDModel, "ssd": SSDModel}


@dataclass(frozen=True)
class TierDef:
    """One tier of a :class:`TieredTestbed`: kind, count, device overrides."""

    kind: str
    count: int
    device_kwargs: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in DEVICE_KINDS:
            raise ValueError(f"unknown device kind {self.kind!r}; use one of {sorted(DEVICE_KINDS)}")
        if self.count < 1:
            raise ValueError(f"tier count must be >= 1, got {self.count}")

    def make_device(self, seed, name: str) -> StorageDevice:
        """Instantiate one device of this tier."""
        return DEVICE_KINDS[self.kind](seed=seed, name=name, **self.device_kwargs)


@dataclass
class TieredTestbed:
    """An ordered multi-tier cluster; calibration cached like :class:`Testbed`."""

    __test__ = False  # Not a pytest test class despite the name.

    tiers: list[TierDef] = field(default_factory=list)
    seed: int = 0
    nic_parallelism: int = 4
    network: NetworkModel | None = None
    _params: MultiTierParameters | None = field(default=None, repr=False)

    def __post_init__(self):
        if not self.tiers:
            raise ValueError("need at least one tier")

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(tier.count for tier in self.tiers)

    def build(self, sim: Simulator) -> TieredPFS:
        """Fresh multi-tier PFS for one simulation run."""
        tier_devices = [
            [
                tier.make_device(derive_rng(self.seed, "tier", t, i), f"tier{t}.{i}")
                for i in range(tier.count)
            ]
            for t, tier in enumerate(self.tiers)
        ]
        return TieredPFS.build(
            sim,
            tier_devices,
            network=self.network or NetworkModel(),
            nic_parallelism=self.nic_parallelism,
        )

    def parameters(self, repeats: int = 150) -> MultiTierParameters:
        """Probe one device per tier into a calibrated parameter bundle."""
        if self._params is None:
            network = self.network or NetworkModel()
            specs = []
            for t, tier in enumerate(self.tiers):
                probe = tier.make_device(derive_rng(self.seed, "probe-tier", t), f"probe{t}")
                profile = calibrate_profile(probe, repeats=repeats, label=f"tier{t}:{tier.kind}")
                specs.append(TierSpec(count=tier.count, profile=profile))
            self._params = MultiTierParameters(
                tiers=tuple(specs),
                unit_network_time=calibrate_network(
                    network, concurrent_flows=self.nic_parallelism
                ),
            )
        return self._params


def tiered_harl_plan(
    testbed: TieredTestbed,
    workload,
    step: int | None = None,
    **planner_kwargs,
) -> RegionStripeTable:
    """Tracing + Analysis phases for a workload on a multi-tier testbed."""
    planner = MultiTierPlanner(testbed.parameters(), step=step, **planner_kwargs)
    return planner.plan(planning_trace(workload))
