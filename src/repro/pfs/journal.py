"""Crash-consistent metadata: a write-ahead journal for the MDS namespace.

The MDS namespace — file → layout, layout generations, in-flight migration
state — was bare in-memory dicts; a crash mid-``relayout`` or mid-migration
could strand it between generations. This module gives every MDS mutation a
write-ahead journal record, and :meth:`MetadataServer.recover
<repro.pfs.metadata.MetadataServer.recover>` rebuilds the namespace from
the journal bytes alone.

Record framing (DESIGN.md §11)::

    +----+-------------+-----------+------------------+
    | RJ | len(payload)| crc32     | payload (JSON)   |
    | 2B | u32 BE      | u32 BE    | len bytes, utf-8 |
    +----+-------------+-----------+------------------+

The payload is canonical JSON (sorted keys) with an ``op`` field plus
op-specific fields. A record *applies* if and only if it is completely and
verifiably present: :func:`MetadataJournal.decode` stops at the first bad
magic, short header, short payload, or CRC mismatch and discards the torn
tail. Because every logical mutation is exactly one record — the
migration generation-swap is two records, but only ``migration_commit``
mutates — recovery from any byte prefix yields exactly the pre- or
post-mutation namespace, never a state in between.

A bare :class:`MetadataServer` journals once
:meth:`MetadataServer.enable_journal` runs; every shard of the
filesystem's :class:`~repro.pfs.mds_cluster.MetadataCluster` journals from
birth, so every layout the filesystem accepts must serialize here.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, field

from repro.pfs.layout import HybridFixedLayout, LayoutPolicy, RegionLevelLayout

#: Record magic: the two bytes every frame starts with.
MAGIC = b"RJ"

_HEADER = struct.Struct(">2sII")  # magic, payload length, payload crc32

#: Upper bound on one record's payload — anything larger in the header is
#: treated as corruption rather than an attempt to allocate gigabytes.
MAX_PAYLOAD = 16 * 1024 * 1024


def layout_to_spec(layout: LayoutPolicy) -> dict:
    """JSON-serializable description of a layout, for journal records.

    Fixed-family layouts (including :class:`RandomLayout`, which reduces to
    its drawn stripe pair) serialize their striping config and replica
    count; multi-class :class:`~repro.pfs.tiered.TieredFixedLayout` its
    stripe vector; region-level layouts serialize the full RST (two- or
    multi-class rows) plus the per-region replica map. Inverse:
    :func:`layout_from_spec`.
    """
    from repro.pfs.tiered import TieredFixedLayout

    if isinstance(layout, RegionLevelLayout):
        return {
            "kind": "region",
            "rst": json.loads(layout.rst.to_json()),
            "replicas": {str(k): v for k, v in sorted(layout._replicas.items())},
        }
    if isinstance(layout, HybridFixedLayout):
        config = layout.config
        return {
            "kind": "fixed",
            "n_hservers": config.n_hservers,
            "n_sservers": config.n_sservers,
            "hstripe": config.hstripe,
            "sstripe": config.sstripe,
            "replicas": layout.replicas,
        }
    if isinstance(layout, TieredFixedLayout):
        return {"kind": "tiered", "config": layout.config.to_dict()}
    raise TypeError(f"cannot journal layout type {type(layout).__name__}")


def layout_from_spec(spec: dict) -> LayoutPolicy:
    """Rebuild a layout from :func:`layout_to_spec` output."""
    kind = spec.get("kind")
    if kind == "region":
        from repro.core.rst import RegionStripeTable

        rst = RegionStripeTable.from_json(json.dumps(spec["rst"]))
        replicas = {int(k): int(v) for k, v in spec.get("replicas", {}).items()}
        return RegionLevelLayout(rst, replicas=replicas or 1)
    if kind == "fixed":
        return HybridFixedLayout(
            spec["n_hservers"],
            spec["n_sservers"],
            spec["hstripe"],
            spec["sstripe"],
            replicas=int(spec.get("replicas", 1)),
        )
    if kind == "tiered":
        from repro.pfs.tiered import TieredFixedLayout, config_from_dict

        return TieredFixedLayout(config_from_dict(spec["config"]))
    raise ValueError(f"unknown layout spec kind: {kind!r}")


def canonical_spec(layout: LayoutPolicy) -> str:
    """Canonical string form of a layout (namespace-equality comparisons)."""
    return json.dumps(layout_to_spec(layout), sort_keys=True)


class MetadataJournal:
    """Append-only CRC-framed record log backing the MDS namespace.

    The "disk" is an in-memory byte buffer: crash simulation takes any
    prefix of :attr:`data` (byte-granular, so torn final records are
    expressible) and hands it to ``MetadataServer.recover``.
    """

    def __init__(self) -> None:
        self._buf = bytearray()
        self.appends = 0

    # -- write side --------------------------------------------------------

    def append(self, op: str, **fields) -> int:
        """Frame and append one record; returns the journal size after it."""
        payload = json.dumps({"op": op, **fields}, sort_keys=True).encode()
        self._buf += _HEADER.pack(MAGIC, len(payload), zlib.crc32(payload))
        self._buf += payload
        self.appends += 1
        return len(self._buf)

    @property
    def data(self) -> bytes:
        """The journal bytes as 'on disk' right now."""
        return bytes(self._buf)

    def __len__(self) -> int:
        return len(self._buf)

    def counters(self) -> dict[str, int]:
        """Write-side counters for metric export (``journal.<key>``)."""
        return {"appends": self.appends, "bytes": len(self._buf)}

    # -- read side ---------------------------------------------------------

    @staticmethod
    def decode(data: bytes) -> tuple[list[dict], int]:
        """Parse ``data`` into records, discarding any torn/corrupt tail.

        Returns ``(records, clean_bytes)`` where ``clean_bytes`` is how far
        the verifiable prefix reaches. Parsing stops — never raises — at
        the first frame whose magic, length, CRC, or JSON does not check
        out, so a crash can truncate (or scribble on) the tail arbitrarily.
        """
        records: list[dict] = []
        cursor = 0
        total = len(data)
        while cursor + _HEADER.size <= total:
            magic, length, crc = _HEADER.unpack_from(data, cursor)
            if magic != MAGIC or length > MAX_PAYLOAD:
                break
            start = cursor + _HEADER.size
            end = start + length
            if end > total:
                break
            payload = data[start:end]
            if zlib.crc32(payload) != crc:
                break
            try:
                record = json.loads(payload)
            except ValueError:
                break
            if not isinstance(record, dict) or "op" not in record:
                break
            records.append(record)
            cursor = end
        return records, cursor

    def records(self) -> list[dict]:
        """All records of the (necessarily clean) live journal."""
        records, clean = self.decode(self._buf)
        assert clean == len(self._buf), "live journal can never be torn"
        return records


@dataclass
class RecoveryReport:
    """What :meth:`MetadataServer.recover` found in the journal bytes."""

    bytes_total: int = 0
    bytes_replayed: int = 0
    records_applied: int = 0
    #: Files whose migrations had begun but not committed at the crash —
    #: rolled back to their pre-migration layout/generation.
    rolled_back: list[str] = field(default_factory=list)

    @property
    def torn_bytes(self) -> int:
        """Trailing bytes discarded as torn or corrupt."""
        return self.bytes_total - self.bytes_replayed
