"""Non-uniform multi-region workloads (the paper's modified IOR, Fig. 11).

The Fig. 11 experiment modifies IOR to access a four-region file — region
sizes 256 MB / 1 GB / 2 GB / 4 GB, each driven with a *different* request
size — so that no single stripe pair suits the whole file and region-level
layout pays off. :class:`SyntheticRegionWorkload` generalizes that: any list
of :class:`RegionSpec` (size, request size, optional coverage fraction),
requests distributed round-robin over ranks and shuffled per rank.
"""

from __future__ import annotations

from collections.abc import Callable, Generator
from dataclasses import dataclass

import numpy as np

from repro.devices.base import OpType
from repro.middleware.mpi_sim import RankContext
from repro.middleware.mpiio import MPIIOFile
from repro.pfs.batch import RequestBatch
from repro.util.rng import derive_rng
from repro.workloads.traces import TraceColumns, TraceRecord


@dataclass(frozen=True)
class RegionSpec:
    """One file region of a non-uniform workload.

    ``coverage`` < 1 samples that fraction of the region's request slots
    (evenly spaced), which keeps huge regions affordable in simulation while
    preserving their request-size signature.
    """

    size: int
    request_size: int
    coverage: float = 1.0

    def __post_init__(self):
        if self.size < 1 or self.request_size < 1:
            raise ValueError("size and request_size must be >= 1")
        if self.size % self.request_size != 0:
            raise ValueError(
                f"region size ({self.size}) must be a multiple of its request size "
                f"({self.request_size})"
            )
        if not (0 < self.coverage <= 1):
            raise ValueError(f"coverage must be in (0, 1], got {self.coverage}")

    @property
    def n_slots(self) -> int:
        return self.size // self.request_size

    @property
    def n_requests(self) -> int:
        return max(1, int(round(self.n_slots * self.coverage)))


class SyntheticRegionWorkload:
    """Requests with per-region sizes over a multi-region file."""

    def __init__(
        self,
        regions: list[RegionSpec],
        n_processes: int = 16,
        op: OpType | str = OpType.WRITE,
        seed: int = 0,
    ):
        if not regions:
            raise ValueError("need at least one region")
        if n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {n_processes}")
        self.regions = list(regions)
        self.n_processes = n_processes
        self.op = OpType.parse(op)
        self.seed = seed

    @property
    def file_size(self) -> int:
        return sum(r.size for r in self.regions)

    @property
    def total_bytes(self) -> int:
        """Bytes actually accessed (≤ file size when coverage < 1)."""
        return sum(r.n_requests * r.request_size for r in self.regions)

    def region_bases(self) -> list[int]:
        """Start offset of each region in the file."""
        bases = []
        cursor = 0
        for region in self.regions:
            bases.append(cursor)
            cursor += region.size
        return bases

    def _all_slots(self) -> tuple[np.ndarray, np.ndarray]:
        """Every sampled request as (offsets, sizes) int64 columns, region order."""
        offsets = []
        sizes = []
        for base, region in zip(self.region_bases(), self.regions):
            slots = np.linspace(0, region.n_slots - 1, region.n_requests)
            slots = np.unique(slots.round().astype(np.int64))
            offsets.append(base + slots * region.request_size)
            sizes.append(np.full(slots.shape[0], region.request_size, dtype=np.int64))
        return np.concatenate(offsets), np.concatenate(sizes)

    def _rank_share(
        self, offsets: np.ndarray, sizes: np.ndarray, rank: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """One rank's round-robin share of the slot columns, shuffled."""
        mine_offsets = offsets[rank :: self.n_processes]
        order = derive_rng(self.seed, "synthetic", rank).permutation(mine_offsets.shape[0])
        return mine_offsets[order], sizes[rank :: self.n_processes][order]

    def rank_requests(self, rank: int) -> list[tuple[OpType, int, int]]:
        """Round-robin share of the slots, shuffled per rank."""
        if not (0 <= rank < self.n_processes):
            raise ValueError(f"rank {rank} out of range 0..{self.n_processes - 1}")
        offsets, sizes = self._rank_share(*self._all_slots(), rank)
        return [(self.op, offset, size) for offset, size in zip(offsets.tolist(), sizes.tolist())]

    def request_batch(self) -> RequestBatch:
        """All ranks' streams as one columnar batch, rank-major.

        Per-rank shuffles draw the same RNG streams as
        :meth:`rank_requests`, applied as index permutations over numpy
        columns instead of list rebuilds.
        """
        all_offsets, all_sizes = self._all_slots()
        shares = [
            self._rank_share(all_offsets, all_sizes, rank) for rank in range(self.n_processes)
        ]
        offsets = np.concatenate([offsets for offsets, _ in shares])
        return RequestBatch(
            offsets=offsets,
            sizes=np.concatenate([sizes for _, sizes in shares]),
            is_read=np.full(offsets.shape[0], self.op is OpType.READ, dtype=bool),
        )

    def trace_columns(self) -> TraceColumns:
        """The offset-sorted planning trace: every slot once, in offset order.

        Region bases ascend and each region's slots are unique and sorted,
        so the slot columns already are the sorted trace.
        """
        offsets, sizes = self._all_slots()
        is_read = np.full(offsets.shape[0], self.op is OpType.READ, dtype=bool)
        return TraceColumns(offsets, sizes, is_read)

    def synthetic_trace(self) -> list[TraceRecord]:
        """Offset-sorted trace over all ranks (slot ``i`` is rank
        ``i mod n_processes``'s, as in :meth:`rank_requests`)."""
        offsets, sizes, _ = self.trace_columns()
        n_processes = self.n_processes
        return [
            TraceRecord(
                pid=1, rank=i % n_processes, fd=3, op=self.op, offset=offset, size=size,
                timestamp=0.0,
            )
            for i, (offset, size) in enumerate(zip(offsets.tolist(), sizes.tolist()))
        ]

    def rank_program(self, mf: MPIIOFile) -> Callable[[RankContext], Generator]:
        """Coroutine per rank replaying its stream as independent I/O."""

        def program(ctx: RankContext) -> Generator:
            requests = self.rank_requests(ctx.rank)
            yield from ctx.barrier()
            for op, offset, size in requests:
                if op is OpType.READ:
                    yield from mf.read_at(ctx.rank, offset, size)
                else:
                    yield from mf.write_at(ctx.rank, offset, size)
            yield from ctx.barrier()
            return len(requests)

        return program
