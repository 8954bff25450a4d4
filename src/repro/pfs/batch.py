"""Columnar request batches: the struct-of-arrays shape of a replay.

Large-scale replays move millions of requests through the simulated PFS;
materializing each one as a Python tuple (and later a generator process)
dominates wall-clock long before the DES arithmetic does. A
:class:`RequestBatch` keeps the whole batch as four parallel numpy arrays —
``offsets``/``sizes`` (int64), ``is_read`` (bool), and optional per-request
``issue_times`` (float64 seconds, relative to submission) — so workload
generators emit columns natively, the striping decomposition runs as one
vectorized :func:`repro.pfs.mapping.decompose_batch_flat` pass, and
:meth:`repro.pfs.filesystem.PFSFile.request_batch` can drive the batched
execution fast path without per-request object churn.

Batches are value objects: treat the arrays as immutable after
construction (they are shared, not copied, to keep million-request batches
cheap to pass around).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.devices.base import OpType

__all__ = ["RequestBatch"]


def _as_column(values, dtype, name: str) -> np.ndarray:
    array = np.asarray(values, dtype=dtype)
    if array.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {array.shape}")
    return array


@dataclass(eq=False)
class RequestBatch:
    """A struct-of-arrays batch of I/O requests against one file.

    Attributes:
        offsets: int64 byte offsets, one per request.
        sizes: int64 request sizes in bytes; every entry must be >= 0.
            A zero-size request moves no data — it is a pure metadata
            operation (an open/stat-class RST consult), the unit of the
            open-storm workloads.
        is_read: bool column; False entries are writes.
        issue_times: optional float64 column of per-request issue times in
            seconds **relative to the submission instant** (>= 0). ``None``
            means every request is issued at the submission instant.
    """

    offsets: np.ndarray
    sizes: np.ndarray
    is_read: np.ndarray
    issue_times: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.offsets = _as_column(self.offsets, np.int64, "offsets")
        self.sizes = _as_column(self.sizes, np.int64, "sizes")
        self.is_read = _as_column(self.is_read, bool, "is_read")
        n = self.offsets.shape[0]
        if self.sizes.shape[0] != n or self.is_read.shape[0] != n:
            raise ValueError(
                f"column lengths differ: offsets={n}, sizes={self.sizes.shape[0]}, "
                f"is_read={self.is_read.shape[0]}"
            )
        if n and self.offsets.min() < 0:
            raise ValueError("offsets must be >= 0")
        if n and self.sizes.min() < 0:
            raise ValueError("sizes must be >= 0")
        if self.issue_times is not None:
            self.issue_times = _as_column(self.issue_times, np.float64, "issue_times")
            if self.issue_times.shape[0] != n:
                raise ValueError(
                    f"issue_times has {self.issue_times.shape[0]} entries, expected {n}"
                )
            if n and not np.isfinite(self.issue_times).all():
                raise ValueError("issue_times must be finite")
            if n and self.issue_times.min() < 0:
                raise ValueError("issue_times must be >= 0 (relative to submission)")

    # -- construction -------------------------------------------------------

    @classmethod
    def from_requests(
        cls,
        requests: Sequence[tuple[int, int]],
        op: OpType | str,
        issue_times: Sequence[float] | np.ndarray | None = None,
    ) -> "RequestBatch":
        """Build a single-op batch from ``(offset, size)`` pairs."""
        op = OpType.parse(op)
        n = len(requests)
        offsets = np.fromiter((o for o, _ in requests), dtype=np.int64, count=n)
        sizes = np.fromiter((s for _, s in requests), dtype=np.int64, count=n)
        return cls(
            offsets=offsets,
            sizes=sizes,
            is_read=np.full(n, op is OpType.READ, dtype=bool),
            issue_times=None if issue_times is None else np.asarray(issue_times, np.float64),
        )

    @classmethod
    def from_trace(cls, records, issue_times: bool = False) -> "RequestBatch":
        """Build a batch from IOSIG-style trace records (offset/size/op[/timestamp]).

        ``issue_times=True`` additionally captures each record's
        ``timestamp`` rebased to the earliest one, preserving the trace's
        temporal spacing on replay.
        """
        records = list(records)
        n = len(records)
        offsets = np.fromiter((r.offset for r in records), dtype=np.int64, count=n)
        sizes = np.fromiter((r.size for r in records), dtype=np.int64, count=n)
        is_read = np.fromiter(
            (OpType.parse(r.op) is OpType.READ for r in records), dtype=bool, count=n
        )
        times = None
        if issue_times and n:
            stamps = np.fromiter((r.timestamp for r in records), dtype=np.float64, count=n)
            times = stamps - stamps.min()
        return cls(offsets=offsets, sizes=sizes, is_read=is_read, issue_times=times)

    # -- inspection ---------------------------------------------------------

    def __len__(self) -> int:
        return self.offsets.shape[0]

    @property
    def n_requests(self) -> int:
        return self.offsets.shape[0]

    @property
    def total_bytes(self) -> int:
        """Summed request sizes."""
        return int(self.sizes.sum()) if len(self) else 0

    @property
    def single_op(self) -> OpType | None:
        """The batch's operation when uniform, else None."""
        if not len(self):
            return None
        if self.is_read.all():
            return OpType.READ
        if not self.is_read.any():
            return OpType.WRITE
        return None

    def op_at(self, index: int) -> OpType:
        """Operation of one request."""
        return OpType.READ if self.is_read[index] else OpType.WRITE

    def requests(self) -> Iterator[tuple[int, int]]:
        """Iterate ``(offset, size)`` pairs (scalar view, for tests/fallbacks)."""
        for offset, size in zip(self.offsets.tolist(), self.sizes.tolist()):
            yield offset, size

    def iter_chunks(self, chunk_size: int) -> Iterator["RequestBatch"]:
        """Split into consecutive sub-batches of at most ``chunk_size`` requests.

        Chunks are zero-copy views (numpy slices) sharing this batch's
        columns, in request order; the last chunk may be shorter. Replaying
        the chunks back-to-back models a pipelined submission where each
        window is issued once the previous one drains — the memory-bounded
        way to push 100M-request replays through
        :meth:`repro.pfs.filesystem.PFSFile.request_batch`.
        """
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        for start in range(0, len(self), chunk_size):
            yield self[start : start + chunk_size]

    def __getitem__(self, key) -> "RequestBatch":
        """Slice/fancy-index into a sub-batch (columns stay aligned)."""
        if isinstance(key, int):
            key = slice(key, key + 1)
        return RequestBatch(
            offsets=self.offsets[key],
            sizes=self.sizes[key],
            is_read=self.is_read[key],
            issue_times=None if self.issue_times is None else self.issue_times[key],
        )

    def __repr__(self) -> str:
        timed = "timed" if self.issue_times is not None else "untimed"
        return (
            f"RequestBatch(n={len(self)}, bytes={self.total_bytes}, "
            f"op={self.single_op.value if self.single_op else 'mixed'}, {timed})"
        )
