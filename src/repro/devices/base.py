"""Storage device interface shared by the HDD and SSD models."""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from repro.util.rng import derive_rng


class OpType(enum.Enum):
    """File operation type; SSDs serve the two asymmetrically."""

    READ = "read"
    WRITE = "write"

    @classmethod
    def parse(cls, value: "OpType | str") -> "OpType":
        """Accept ``OpType`` or the strings ``"read"``/``"write"`` (any case)."""
        if isinstance(value, cls):
            return value
        try:
            return cls(value.lower())
        except (AttributeError, ValueError):
            raise ValueError(f"invalid operation type: {value!r}") from None


@dataclass(frozen=True)
class ServiceBatch:
    """Per-request service terms of one batch, and the state it leaves.

    ``startup`` and ``transfer`` are already scaled by the device's
    ``slowdown``, exactly as :meth:`StorageDevice.service_breakdown` returns
    them. On a :attr:`~StorageDevice.batchable` device the RNG has already
    advanced; everything else the batch changes (traffic counters, head
    position, GC counter) lands only on :meth:`commit`, so a caller can
    drop a computed batch after restoring the RNG state. Any other device
    served the batch through its scalar calls, so its state has landed and
    :meth:`commit` changes nothing.
    """

    device: "StorageDevice"
    is_read: bool
    startup: np.ndarray
    transfer: np.ndarray
    n_bytes: int
    n_requests: int
    #: Device attributes as the last request leaves them.
    state: dict

    def commit(self) -> None:
        """Apply the batch's counters and device state to the device."""
        device = self.device
        if self.is_read:
            device.bytes_read += self.n_bytes
        else:
            device.bytes_written += self.n_bytes
        device.requests_served += self.n_requests
        for name, value in self.state.items():
            setattr(device, name, value)


class StorageDevice(ABC):
    """A device that turns (op, offset, size) into a service time in seconds.

    Devices are *stateful*: HDD head position and SSD garbage-collection debt
    evolve as requests are served, so ``service_time`` must be called once
    per served request, in service order. Devices are seeded individually so
    per-server startup latencies are independent streams.

    :meth:`service_batch` serves a whole request sequence. A model class
    may define ``_service_stream(is_read, offsets, sizes) -> (startup,
    transfer, state)`` beside its scalar formulas (positive sizes, unscaled
    by ``slowdown``); the batch then runs in numpy. Only the class that
    defines the stream itself is ``batchable``: a subclass could change
    any formula or property the stream inlines, so it falls back to the
    scalar calls, which are its own formulas by construction.
    """

    def __init__(self, seed: int | np.random.Generator | None = None, name: str = "device"):
        self.name = name
        self.rng = derive_rng(seed, "device", name)
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests_served = 0
        #: Service-time multiplier for injected degradation faults
        #: (:mod:`repro.faults`). Exactly 1.0 when healthy — multiplying by
        #: 1.0 is an IEEE-754 identity, so fault-free runs are bit-identical
        #: to a build without this hook.
        self.slowdown = 1.0

    @abstractmethod
    def startup_time(self, op: OpType, offset: int, size: int) -> float:
        """Sampled pre-transfer latency (seek/rotation for HDD, FTL for SSD)."""

    @abstractmethod
    def transfer_time(self, op: OpType, size: int) -> float:
        """Medium transfer time for ``size`` bytes."""

    def service_breakdown(self, op: OpType | str, offset: int, size: int) -> tuple[float, float]:
        """(startup, transfer) seconds for one request; updates device state.

        Samples exactly the streams :meth:`service_time` samples, in the
        same order, so a traced simulation (which needs the split to emit
        separate startup/transfer spans) is bit-identical to an untraced
        one.
        """
        op = OpType.parse(op)
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if size == 0:
            return 0.0, 0.0
        slowdown = self.slowdown
        startup = self.startup_time(op, offset, size) * slowdown
        transfer = self.transfer_time(op, size) * slowdown
        if op is OpType.READ:
            self.bytes_read += size
        else:
            self.bytes_written += size
        self.requests_served += 1
        return startup, transfer

    def service_time(self, op: OpType | str, offset: int, size: int) -> float:
        """Total service time for one contiguous request; updates device state."""
        startup, transfer = self.service_breakdown(op, offset, size)
        return startup + transfer

    @property
    def batchable(self) -> bool:
        """Whether this device's class serves batches as one numpy pass
        (what the columnar tier requires)."""
        return "_service_stream" in vars(type(self))

    def service_batch(self, is_read: bool, offsets: np.ndarray, sizes: np.ndarray) -> ServiceBatch:
        """Serve ``len(sizes)`` requests in order.

        Bit-identical to calling :meth:`service_breakdown` once per request
        in the same order: the same (startup, transfer) floats, the same
        RNG draws, the same end state. Zero-size requests cost nothing and
        draw nothing, as in the scalar form. On a :attr:`batchable` device
        this is one numpy pass: the RNG advances now and the rest of the
        state waits for :meth:`ServiceBatch.commit`. Any other device runs
        the scalar calls, so its state has landed already and the batch
        has nothing left to commit.
        """
        offsets = np.asarray(offsets, dtype=np.int64)
        sizes = np.asarray(sizes, dtype=np.int64)
        n = sizes.shape[0]
        if not self.batchable:
            op = OpType.READ if is_read else OpType.WRITE
            pairs = [
                self.service_breakdown(op, offset, size)
                for offset, size in zip(offsets.tolist(), sizes.tolist())
            ]
            terms = np.array(pairs, dtype=np.float64).reshape(n, 2)
            return ServiceBatch(
                device=self,
                is_read=bool(is_read),
                startup=terms[:, 0].copy(),
                transfer=terms[:, 1].copy(),
                n_bytes=0,
                n_requests=0,
                state={},
            )
        if n and (sizes.min() < 0 or offsets.min() < 0):
            raise ValueError("offsets and sizes must be >= 0")
        served = sizes > 0
        n_served = int(np.count_nonzero(served))
        state: dict = {}
        if n_served == n and n:
            startup, transfer, state = self._service_stream(bool(is_read), offsets, sizes)
        else:
            startup = np.zeros(n)
            transfer = np.zeros(n)
            if n_served:
                part_startup, part_transfer, state = self._service_stream(
                    bool(is_read), offsets[served], sizes[served]
                )
                startup[served] = part_startup
                transfer[served] = part_transfer
        slowdown = self.slowdown
        return ServiceBatch(
            device=self,
            is_read=bool(is_read),
            startup=startup * slowdown,
            transfer=transfer * slowdown,
            n_bytes=int(sizes.sum()),
            n_requests=n_served,
            state=state,
        )

    def reset_counters(self) -> None:
        """Zero the served-traffic counters (state like head position persists)."""
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests_served = 0
