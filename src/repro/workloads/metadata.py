"""Open/stat-heavy metadata workloads: the MDS contention storm.

The paper bounds the region count precisely because RST consults are not
free: "too many regions inflate metadata management overhead and compromise
the final I/O performance" (Sec. III-C). The workloads here isolate that
overhead — every request is a zero-byte read of one shared file, i.e. a
pure open/stat-class consult that moves no data and exercises nothing but
the metadata path: MDS service queueing, ring routing under sharding, and
the client-side layout cache.

:class:`MetadataWorkload` mirrors the IOR generator's three views:

- :meth:`rank_requests` — one rank's (op, offset, size=0) stream;
- :meth:`request_batch` — the whole storm as one columnar batch, with
  optional issue-time spread (a Poisson-like open front instead of a
  single instantaneous burst);
- :meth:`rank_program` — a coroutine per simulated MPI rank issuing the
  opens back to back (the general-path view of the same storm).
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
from repro.workloads.traces import TraceRecord


@dataclass(frozen=True)
class MetadataConfig:
    """Open-storm parameters.

    ``n_ops`` opens are split evenly over ``n_processes`` ranks (the count
    must divide evenly, like IOR's file/process constraint). ``spread``
    scatters each op's issue time uniformly over ``[0, spread)`` seconds in
    the batched view — 0.0 (default) is the worst case, every open landing
    at the same instant.
    """

    n_ops: int = 1024
    n_processes: int = 16
    spread: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.n_ops < 1:
            raise ValueError(f"n_ops must be >= 1, got {self.n_ops}")
        if self.n_processes < 1:
            raise ValueError(f"n_processes must be >= 1, got {self.n_processes}")
        if self.n_ops % self.n_processes != 0:
            raise ValueError(
                f"n_ops ({self.n_ops}) must divide evenly over "
                f"n_processes ({self.n_processes})"
            )
        if self.spread < 0:
            raise ValueError(f"spread must be >= 0, got {self.spread}")

    @property
    def ops_per_process(self) -> int:
        return self.n_ops // self.n_processes

    @property
    def total_bytes(self) -> int:
        """Metadata ops move no data."""
        return 0


class MetadataWorkload:
    """Generates open-storm request streams from a :class:`MetadataConfig`."""

    def __init__(self, config: MetadataConfig):
        self.config = config

    def rank_requests(self, rank: int) -> list[tuple[OpType, int, int]]:
        """The (op, offset, size) stream of ``rank`` — all zero-byte opens."""
        cfg = self.config
        if not (0 <= rank < cfg.n_processes):
            raise ValueError(f"rank {rank} out of range 0..{cfg.n_processes - 1}")
        return [(OpType.READ, 0, 0)] * cfg.ops_per_process

    def request_batch(self) -> RequestBatch:
        """The whole storm as one columnar batch, rank-major.

        With ``spread > 0`` each op's issue time is a uniform draw from
        ``[0, spread)`` on the rank's :func:`~repro.util.rng.derive_rng`
        stream — same seed, same storm, serial or ``--jobs N``.
        """
        cfg = self.config
        n = cfg.n_ops
        issue_times = None
        if cfg.spread > 0:
            issue_times = np.empty(n, dtype=np.float64)
            per = cfg.ops_per_process
            for rank in range(cfg.n_processes):
                rng = derive_rng(cfg.seed, "meta", rank)
                issue_times[rank * per : (rank + 1) * per] = rng.uniform(
                    0.0, cfg.spread, size=per
                )
        return RequestBatch(
            offsets=np.zeros(n, dtype=np.int64),
            sizes=np.zeros(n, dtype=np.int64),
            is_read=np.ones(n, dtype=bool),
            issue_times=issue_times,
        )

    def synthetic_trace(self) -> list[TraceRecord]:
        """The IOSIG trace a profiling run would produce: empty, since an
        open moves no data and the collector records reads and writes only
        (a zero-size record is not a valid :class:`TraceRecord`)."""
        return []

    def rank_program(self, mf: MPIIOFile) -> Callable[[RankContext], Generator]:
        """Build the coroutine each simulated MPI rank runs: opens, back to back."""

        def program(ctx: RankContext) -> Generator:
            requests = self.rank_requests(ctx.rank)
            yield from ctx.barrier()
            for _, offset, size in requests:
                yield from mf.read_at(ctx.rank, offset, size)
            yield from ctx.barrier()
            return len(requests)

        return program
