"""Multi-tier striping: the paper's stated extension beyond two classes.

Sec. V: "In the future, we would like to extend our cost model to
accommodate more than two server performance profiles." This module
generalizes the paper's (M HServers, N SServers) layout to an ordered list
of server classes, each with its own count and stripe size — e.g. NVMe /
SATA-SSD / HDD tiers. One striping round is ``S = Σ count_i · stripe_i``
bytes, each server's window sits inside the round, and a contiguous
logical request maps to at most one contiguous physical extent per server.

:class:`MultiClassStripingConfig` and the two-class
:class:`repro.pfs.mapping.StripingConfig` share one geometry,
:class:`repro.pfs.mapping.StripingGeometry`, so windows, decomposition and
per-class critical parameters are the same code for both, and layouts, the
RST, and the filesystem fan-out work unchanged.
:class:`TieredPFS` builds a cluster from arbitrary per-tier device factories.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.base import StorageDevice
from repro.network.link import NetworkModel
from repro.pfs.filesystem import ParallelFileSystem
from repro.pfs.layout import LayoutPolicy, LayoutSegment
from repro.pfs.mapping import StripingConfig, StripingGeometry
from repro.pfs.server import FileServer
from repro.simulate.engine import Simulator
from repro.util.units import format_size


@dataclass(frozen=True)
class ClassStripe:
    """One server class in a multi-tier striping config."""

    count: int
    stripe: int

    def __post_init__(self):
        if self.count < 0:
            raise ValueError(f"class count must be >= 0, got {self.count}")
        if self.stripe < 0:
            raise ValueError(f"stripe must be >= 0, got {self.stripe}")


class MultiClassStripingConfig(StripingGeometry):
    """Round-robin striping over K ordered server classes.

    Class ``i`` owns servers ``offset_i .. offset_i + count_i - 1`` (classes
    concatenated in order), each with stripe ``stripe_i``. A class with
    stripe 0 receives no data, exactly like h = 0 in the two-class scheme.
    """

    def __init__(self, classes: list[ClassStripe] | list[tuple[int, int]]):
        normalized = [
            entry if isinstance(entry, ClassStripe) else ClassStripe(*entry) for entry in classes
        ]
        if not normalized:
            raise ValueError("need at least one server class")
        self.classes: tuple[ClassStripe, ...] = tuple(normalized)
        if self.round_size <= 0:
            raise ValueError(
                "striping config distributes no data: need sum(count_i * stripe_i) > 0"
            )

    @property
    def class_counts(self) -> tuple[int, ...]:
        """Servers per class."""
        return tuple(c.count for c in self.classes)

    @property
    def stripes(self) -> tuple[int, ...]:
        """Stripe size per class (the RST merge key)."""
        return tuple(c.stripe for c in self.classes)

    def describe(self) -> str:
        """Legend label, e.g. ``"16K/64K/256K"``."""
        return "/".join(format_size(c.stripe) for c in self.classes)

    def to_dict(self) -> dict:
        """JSON-serializable form (see ``config_from_dict``)."""
        return {
            "type": "multiclass",
            "classes": [{"count": c.count, "stripe": c.stripe} for c in self.classes],
        }

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, MultiClassStripingConfig) and self.classes == other.classes
        )

    def __hash__(self) -> int:
        return hash(self.classes)

    def __repr__(self) -> str:
        inner = ", ".join(f"{c.count}x{format_size(c.stripe)}" for c in self.classes)
        return f"MultiClassStripingConfig({inner})"

    @classmethod
    def from_two_class(cls, config: StripingConfig) -> "MultiClassStripingConfig":
        """Embed a two-class config (the K = 2 special case)."""
        return cls(
            [
                ClassStripe(config.n_hservers, config.hstripe),
                ClassStripe(config.n_sservers, config.sstripe),
            ]
        )


def config_from_dict(payload: dict):
    """Inverse of the configs' ``to_dict`` (RST persistence)."""
    kind = payload.get("type", "hybrid")
    if kind == "hybrid":
        return StripingConfig(
            n_hservers=payload["n_hservers"],
            n_sservers=payload["n_sservers"],
            hstripe=payload["hstripe"],
            sstripe=payload["sstripe"],
        )
    if kind == "multiclass":
        return MultiClassStripingConfig(
            [ClassStripe(row["count"], row["stripe"]) for row in payload["classes"]]
        )
    raise ValueError(f"unknown striping config type: {kind!r}")


class TieredFixedLayout(LayoutPolicy):
    """One multi-class stripe vector for the whole file."""

    def __init__(self, config: MultiClassStripingConfig):
        self.config = config

    def segments(self, offset: int, size: int) -> list[LayoutSegment]:
        if size < 0 or offset < 0:
            raise ValueError("offset and size must be >= 0")
        if size == 0:
            return []
        return [
            LayoutSegment(offset=offset, size=size, config=self.config, region_id=0, region_base=0)
        ]

    def describe(self) -> str:
        return self.config.describe()


class TieredPFS(ParallelFileSystem):
    """A simulated PFS over an ordered list of server tiers."""

    def __init__(
        self,
        sim: Simulator,
        tiers: list[list[FileServer]],
        network: NetworkModel,
        mds=None,
    ):
        if not tiers or not any(tiers):
            raise ValueError("need at least one tier with at least one server")
        self.tiers = [list(tier) for tier in tiers]
        servers = [server for tier in self.tiers for server in tier]
        super().__init__(sim, servers, network, mds=mds)

    @property
    def class_counts(self) -> tuple[int, ...]:
        return tuple(len(tier) for tier in self.tiers)

    @classmethod
    def build(
        cls,
        sim: Simulator,
        tier_devices: list[list[StorageDevice]],
        network: NetworkModel | None = None,
        nic_parallelism: int = 4,
    ) -> "TieredPFS":
        """Build from per-tier device lists (devices already seeded)."""
        network = network or NetworkModel()
        tiers = []
        for tier_index, devices in enumerate(tier_devices):
            tiers.append(
                [
                    FileServer(
                        sim,
                        device,
                        network,
                        name=f"tier{tier_index}.{i}",
                        nic_parallelism=nic_parallelism,
                    )
                    for i, device in enumerate(devices)
                ]
            )
        return cls(sim, tiers, network)
