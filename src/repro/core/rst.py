"""The Region Stripe Table (Fig. 6) and the region-to-file mapping (R2F).

The RST is HARL's persistent output: an ordered table of
``(region offset, HServer stripe, SServer stripe)`` rows. The MDS consults
it per request (Sec. III-F); MPICH2 loads it at ``MPI_Init`` and resolves
logical regions to physical OrangeFS files through the R2F table. Adjacent
regions whose optimal stripes coincide are merged to shrink metadata
(Sec. III-E).

Both tables serialize to JSON so the examples can show the artifact a real
deployment would store next to the application.
"""

from __future__ import annotations

import bisect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.pfs.mapping import StripingConfig
from repro.pfs.tiered import config_from_dict
from repro.util.units import format_size


@dataclass(frozen=True)
class RSTEntry:
    """One RST row: a region and its striping config.

    ``end`` is exclusive; ``None`` means the region extends to EOF. The
    config is either the paper's two-class :class:`StripingConfig` or the
    multi-tier extension's :class:`~repro.pfs.tiered.MultiClassStripingConfig`
    — any :class:`~repro.pfs.mapping.StripingGeometry`.
    """

    region_id: int
    offset: int
    end: int | None
    config: Any

    def covers(self, byte_offset: int) -> bool:
        """True if ``byte_offset`` falls inside this region."""
        if byte_offset < self.offset:
            return False
        return self.end is None or byte_offset < self.end


class RegionStripeTable:
    """Ordered, gap-free region table with binary-search lookup."""

    def __init__(self, entries: list[RSTEntry]):
        if not entries:
            raise ValueError("RST must have at least one entry")
        entries = sorted(entries, key=lambda e: e.offset)
        if entries[0].offset != 0:
            raise ValueError(f"first region must start at offset 0, got {entries[0].offset}")
        for prev, nxt in zip(entries, entries[1:]):
            if prev.end != nxt.offset:
                raise ValueError(
                    f"regions must tile the address space: region {prev.region_id} ends at "
                    f"{prev.end} but region {nxt.region_id} starts at {nxt.offset}"
                )
        if entries[-1].end is not None:
            raise ValueError("last region must be unbounded (end=None)")
        self.entries = [
            RSTEntry(region_id=i, offset=e.offset, end=e.end, config=e.config)
            for i, e in enumerate(entries)
        ]
        self._starts = [e.offset for e in self.entries]

    def __len__(self) -> int:
        return len(self.entries)

    def lookup(self, byte_offset: int) -> RSTEntry:
        """The region containing ``byte_offset`` (O(log n))."""
        if byte_offset < 0:
            raise ValueError(f"offset must be >= 0, got {byte_offset}")
        idx = bisect.bisect_right(self._starts, byte_offset) - 1
        return self.entries[idx]

    def merged(self) -> "RegionStripeTable":
        """Coalesce adjacent regions with identical stripe vectors (Sec. III-E)."""
        merged: list[RSTEntry] = []
        for entry in self.entries:
            if merged and merged[-1].config.stripes == entry.config.stripes:
                last = merged.pop()
                merged.append(
                    RSTEntry(
                        region_id=last.region_id,
                        offset=last.offset,
                        end=entry.end,
                        config=last.config,
                    )
                )
            else:
                merged.append(entry)
        return RegionStripeTable(merged)

    # -- presentation / persistence ---------------------------------------

    def describe_table(self) -> str:
        """Render the Fig. 6 table layout.

        Two-class tables use the paper's column names; multi-tier tables get
        one stripe column per class.
        """
        n_classes = len(self.entries[0].config.stripes)
        if n_classes == 2:
            headers = ["HServer stripe", "SServer stripe"]
        else:
            headers = [f"Class{i} stripe" for i in range(n_classes)]
        lines = ["Region #  File_offset  " + "  ".join(f"{h:<14}" for h in headers).rstrip()]
        for e in self.entries:
            cells = "  ".join(f"{format_size(stripe):<14}" for stripe in e.config.stripes)
            lines.append(f"{e.region_id:<9} {format_size(e.offset):<12} {cells.rstrip()}")
        return "\n".join(lines)

    def to_json(self) -> str:
        """Serialize for the application-directory artifact (Sec. III-G)."""
        payload = [
            {
                "region_id": e.region_id,
                "offset": e.offset,
                "end": e.end,
                "config": e.config.to_dict(),
            }
            for e in self.entries
        ]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "RegionStripeTable":
        """Inverse of :meth:`to_json` (accepts the pre-1.0 flat row format too)."""
        entries = []
        for row in json.loads(text):
            if "config" in row:
                config = config_from_dict(row["config"])
            else:  # Legacy flat two-class rows.
                config = StripingConfig(
                    n_hservers=row["n_hservers"],
                    n_sservers=row["n_sservers"],
                    hstripe=row["hstripe"],
                    sstripe=row["sstripe"],
                )
            entries.append(
                RSTEntry(
                    region_id=row["region_id"], offset=row["offset"], end=row["end"], config=config
                )
            )
        return cls(entries)

    def save(self, path: str | Path) -> None:
        """Write the JSON artifact to ``path``."""
        Path(path).write_text(self.to_json())

    @classmethod
    def load(cls, path: str | Path) -> "RegionStripeTable":
        """Read a JSON artifact written by :meth:`save`."""
        return cls.from_json(Path(path).read_text())


class R2FTable:
    """Region-to-file mapping: logical region → physical PFS file name.

    MPICH2's HARL integration maps each region of a logical file to a
    separate OrangeFS file; the middleware rewrites (region, relative
    offset) into that file. Our PFS resolves regions natively via
    :class:`repro.pfs.layout.RegionLevelLayout`, but the middleware still
    materializes R2F so the artifact set matches the paper's implementation.
    """

    def __init__(self, logical_name: str, rst: RegionStripeTable):
        self.logical_name = logical_name
        self.rst = rst
        self._mapping = {
            e.region_id: f"{logical_name}.region{e.region_id}" for e in rst.entries
        }

    def physical_name(self, region_id: int) -> str:
        """The physical file backing ``region_id``."""
        try:
            return self._mapping[region_id]
        except KeyError:
            raise KeyError(f"no region {region_id} in R2F for {self.logical_name!r}") from None

    def resolve(self, byte_offset: int) -> tuple[str, int]:
        """(physical file, offset within it) for a logical byte offset."""
        entry = self.rst.lookup(byte_offset)
        return self._mapping[entry.region_id], byte_offset - entry.offset

    def to_json(self) -> str:
        """Serialize the mapping."""
        return json.dumps(
            {
                "logical_name": self.logical_name,
                "regions": {str(k): v for k, v in self._mapping.items()},
            },
            indent=2,
        )
