"""Simulated hybrid parallel file system (the paper's OrangeFS testbed).

Layers:

- :mod:`repro.pfs.mapping` — the round-robin striping math: how a logical
  request decomposes into one contiguous sub-request per file server, and
  the critical parameters (s_m, s_n, m, n) the cost model needs. Exact
  closed forms, scalar and numpy-vectorized.
- :mod:`repro.pfs.layout` — layout policies: fixed-size stripes (the
  baseline), hybrid fixed (h, s) pairs, randomly chosen stripes, and the
  region-level layout driven by HARL's RST.
- :mod:`repro.pfs.server` / :mod:`repro.pfs.mds_cluster` /
  :mod:`repro.pfs.filesystem` — the DES components: file servers wrapping
  storage devices with FIFO disk and NIC queues, the metadata cluster (one
  shard by default, each a journaled :mod:`repro.pfs.metadata` store)
  serving layout lookups, and the :class:`HybridPFS` facade clients talk
  to.
- :mod:`repro.pfs.integrity` / :mod:`repro.pfs.journal` — end-to-end data
  integrity (per-stripe-unit checksums, typed :class:`IntegrityError`) and
  the crash-consistent metadata write-ahead log (DESIGN.md §11).
"""

from repro.pfs.batch import RequestBatch
from repro.pfs.filesystem import HybridPFS, ParallelFileSystem, PFSFile
from repro.pfs.integrity import IntegrityError, IntegrityStats
from repro.pfs.journal import MetadataJournal, RecoveryReport
from repro.pfs.layout import (
    FixedLayout,
    HybridFixedLayout,
    LayoutPolicy,
    RandomLayout,
    RegionLevelLayout,
)
from repro.pfs.mapping import (
    CriticalParams,
    StripingConfig,
    StripingGeometry,
    SubRequest,
    critical_params,
    critical_params_vectorized,
    decompose,
)
from repro.pfs.metadata import MetadataServer
from repro.pfs.server import FileServer
from repro.pfs.tiered import (
    ClassStripe,
    MultiClassStripingConfig,
    TieredFixedLayout,
    TieredPFS,
    config_from_dict,
)

__all__ = [
    "ClassStripe",
    "CriticalParams",
    "FileServer",
    "FixedLayout",
    "HybridFixedLayout",
    "HybridPFS",
    "IntegrityError",
    "IntegrityStats",
    "LayoutPolicy",
    "MetadataJournal",
    "MetadataServer",
    "MultiClassStripingConfig",
    "PFSFile",
    "ParallelFileSystem",
    "RandomLayout",
    "RecoveryReport",
    "RegionLevelLayout",
    "RequestBatch",
    "StripingConfig",
    "StripingGeometry",
    "SubRequest",
    "TieredFixedLayout",
    "TieredPFS",
    "config_from_dict",
    "critical_params",
    "critical_params_vectorized",
    "decompose",
]
