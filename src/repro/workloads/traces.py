"""IOSIG-style I/O traces.

The paper's tracing phase records, per file operation: process id, MPI rank,
file descriptor, operation type, offset, request size, and a timestamp
(Sec. III-B), then sorts read/write records by ascending offset to feed
region division. :class:`TraceRecord` mirrors that schema; :class:`TraceFile`
persists streams as CSV (one artifact per application run).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from repro.devices.base import OpType


@dataclass(frozen=True)
class TraceRecord:
    """One traced file operation (the IOSIG record)."""

    pid: int
    rank: int
    fd: int
    op: OpType
    offset: int
    size: int
    timestamp: float

    def __post_init__(self):
        if self.offset < 0 or self.size <= 0:
            raise ValueError(f"invalid trace record: offset={self.offset}, size={self.size}")


def sort_trace(records: Iterable[TraceRecord]) -> list[TraceRecord]:
    """Sort records by ascending offset (ties by timestamp) — the collector's
    output order that Algorithm 1 expects."""
    return sorted(records, key=attrgetter("offset", "timestamp"))


class TraceColumns(NamedTuple):
    """A trace as numpy columns, one entry per record."""

    offsets: np.ndarray
    sizes: np.ndarray
    is_read: np.ndarray


def trace_arrays(records: Sequence[TraceRecord]) -> TraceColumns:
    """Columnize a trace: (offsets, sizes, is_read) numpy arrays, each
    built in one pass over the records."""
    n = len(records)
    return TraceColumns(
        np.fromiter((r.offset for r in records), dtype=np.int64, count=n),
        np.fromiter((r.size for r in records), dtype=np.int64, count=n),
        np.fromiter((r.op is OpType.READ for r in records), dtype=bool, count=n),
    )


def planning_trace(workload) -> TraceColumns:
    """A workload's offset-sorted planning trace, as columns.

    A workload may hand the columns over itself through ``trace_columns()``
    (the Fig. 11 generator builds them without records); for any other,
    ``synthetic_trace()`` is sorted and columnized.
    """
    trace_columns = getattr(workload, "trace_columns", None)
    if trace_columns is not None:
        return trace_columns()
    return trace_arrays(sort_trace(workload.synthetic_trace()))


class TraceFile:
    """CSV persistence for traces (the artifact of the Tracing Phase)."""

    HEADER = ("pid", "rank", "fd", "op", "offset", "size", "timestamp")

    @classmethod
    def dumps(cls, records: Iterable[TraceRecord]) -> str:
        """Serialize records to CSV text."""
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(cls.HEADER)
        for r in records:
            writer.writerow((r.pid, r.rank, r.fd, r.op.value, r.offset, r.size, f"{r.timestamp:.9f}"))
        return buffer.getvalue()

    @classmethod
    def loads(cls, text: str) -> list[TraceRecord]:
        """Parse CSV text back into records."""
        reader = csv.reader(io.StringIO(text))
        header = next(reader, None)
        if header is None or tuple(header) != cls.HEADER:
            raise ValueError(f"not a trace file: bad header {header!r}")
        records = []
        for row in reader:
            if not row:
                continue
            pid, rank, fd, op, offset, size, timestamp = row
            records.append(
                TraceRecord(
                    pid=int(pid),
                    rank=int(rank),
                    fd=int(fd),
                    op=OpType.parse(op),
                    offset=int(offset),
                    size=int(size),
                    timestamp=float(timestamp),
                )
            )
        return records

    @classmethod
    def save(cls, path: str | Path, records: Iterable[TraceRecord]) -> None:
        """Write a trace CSV to disk."""
        Path(path).write_text(cls.dumps(records))

    @classmethod
    def load(cls, path: str | Path) -> list[TraceRecord]:
        """Read a trace CSV from disk."""
        return cls.loads(Path(path).read_text())
