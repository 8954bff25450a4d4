"""Solid state drive model.

Captures the three SSD traits the paper's cost model encodes (Sec. III-D):

1. startup times are one to two orders of magnitude below HDD,
2. transfer is faster than HDD,
3. writes are slower than reads, because of garbage collection (GC) and
   wear leveling.

GC is modeled explicitly: every ``gc_window`` bytes written, the next write
pays an extra ``gc_pause``. Over a long run this raises the *effective*
per-byte write time, which is exactly what the analysis-phase calibration
(:mod:`repro.experiments.calibrate`) will measure into β_sw — the simulated
testbed does not leak its internals to the planner.

Channel parallelism gives large requests a mild per-byte discount (requests
that span more internal channels stream in parallel), capped at
``n_channels``. Defaults approximate a PCIe drive of the paper's era served
through an OrangeFS server: ~600 MiB/s read / ~300 MiB/s write at full
width, 10–60 µs startup — a several-fold advantage over the HDD defaults'
effective concurrent-access rates, reproducing the paper's Fig. 1(a)
imbalance and leaving headroom for HARL's stripe rebalancing gains.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import OpType, StorageDevice
from repro.util.units import KiB, MiB
from repro.util.validation import check_non_negative, check_positive

#: Channel speedup: sub-chunk requests stream at ``CHANNEL_FLOOR`` of the
#: nominal bandwidth, and all channels engaged reach the full rate.
CHANNEL_FLOOR = 0.6
CHANNEL_SPAN = 0.4


class SSDModel(StorageDevice):
    """Flash drive with read/write asymmetry and GC stalls.

    Args:
        read_alpha_min / read_alpha_max: read startup bounds (seconds).
        write_alpha_min / write_alpha_max: write startup bounds (seconds).
        read_bandwidth / write_bandwidth: full-width transfer rates (bytes/s).
        n_channels: internal channels; a request engages
            ``ceil(size / channel_chunk)`` of them, up to this cap.
        channel_chunk: bytes one channel serves before the next is engaged.
        gc_window: bytes written between garbage-collection stalls (0 = off).
        gc_pause: seconds added to the write that crosses a GC boundary.
    """

    def __init__(
        self,
        read_alpha_min: float = 1.0e-5,
        read_alpha_max: float = 4.0e-5,
        write_alpha_min: float = 2.0e-5,
        write_alpha_max: float = 6.0e-5,
        read_bandwidth: float = 600 * MiB,
        write_bandwidth: float = 350 * MiB,
        n_channels: int = 8,
        channel_chunk: int = 64 * KiB,
        gc_window: int = 256 * MiB,
        gc_pause: float = 2.0e-4,
        seed: int | np.random.Generator | None = None,
        name: str = "ssd",
    ):
        super().__init__(seed=seed, name=name)
        for label, lo, hi in (
            ("read_alpha", read_alpha_min, read_alpha_max),
            ("write_alpha", write_alpha_min, write_alpha_max),
        ):
            check_non_negative(f"{label}_min", lo)
            check_non_negative(f"{label}_max", hi)
            if hi < lo:
                raise ValueError(f"{label}_max ({hi}) < {label}_min ({lo})")
        check_positive("read_bandwidth", read_bandwidth)
        check_positive("write_bandwidth", write_bandwidth)
        check_positive("n_channels", n_channels)
        check_positive("channel_chunk", channel_chunk)
        check_non_negative("gc_window", gc_window)
        check_non_negative("gc_pause", gc_pause)
        self.read_alpha_min = float(read_alpha_min)
        self.read_alpha_max = float(read_alpha_max)
        self.write_alpha_min = float(write_alpha_min)
        self.write_alpha_max = float(write_alpha_max)
        self.read_bandwidth = float(read_bandwidth)
        self.write_bandwidth = float(write_bandwidth)
        self.n_channels = int(n_channels)
        self.channel_chunk = int(channel_chunk)
        self.gc_window = int(gc_window)
        self.gc_pause = float(gc_pause)
        self._bytes_since_gc = 0

    @property
    def beta_read(self) -> float:
        """Per-byte read transfer time at a single-channel width."""
        return 1.0 / self.read_bandwidth

    @property
    def beta_write(self) -> float:
        """Per-byte write transfer time at a single-channel width."""
        return 1.0 / self.write_bandwidth

    def startup_time(self, op: OpType, offset: int, size: int) -> float:
        if op is OpType.READ:
            base = float(self.rng.uniform(self.read_alpha_min, self.read_alpha_max))
        else:
            base = float(self.rng.uniform(self.write_alpha_min, self.write_alpha_max))
            if self.gc_window > 0:
                self._bytes_since_gc += size
                if self._bytes_since_gc >= self.gc_window:
                    self._bytes_since_gc -= self.gc_window
                    base += self.gc_pause
        return base

    def _channel_speedup(self, size: int) -> float:
        """Mild large-request discount from engaging more internal channels.

        Effective width ramps from ~60% of nominal bandwidth for
        sub-chunk requests to 100% once all channels are engaged.
        """
        engaged = min(self.n_channels, max(1, -(-size // self.channel_chunk)))
        return CHANNEL_FLOOR + CHANNEL_SPAN * (engaged / self.n_channels)

    def transfer_time(self, op: OpType, size: int) -> float:
        beta = self.beta_read if op is OpType.READ else self.beta_write
        return size * beta / self._channel_speedup(size)

    def _gc_crossings(self, sizes: np.ndarray) -> tuple[np.ndarray, int]:
        """Which writes pay a GC pause, and the counter after the last one.

        The scalar rule adds each write to the counter and subtracts one
        window when the sum reaches it, so a write of a window or more
        leaves the counter high and later writes keep paying. With
        ``q_i = floor(S_i / W)`` over the running sums ``S_i``, the pauses
        paid so far follow ``k_i = min(k_{i-1} + 1, q_i)``, ``k_0 = 0``,
        which unrolls to ``k_i = i + min(0, min_{j<=i}(q_j - j))``: one
        integer cumulative minimum, exact for any sizes and start state.
        """
        window = self.gc_window
        sums = self._bytes_since_gc + np.cumsum(sizes)
        steps = np.arange(1, sizes.shape[0] + 1)
        paid = steps + np.minimum(np.minimum.accumulate(sums // window - steps), 0)
        crossed = np.diff(paid, prepend=0) > 0
        return crossed, int(sums[-1] - window * paid[-1])

    def _service_stream(self, is_read: bool, offsets: np.ndarray, sizes: np.ndarray):
        """:meth:`startup_time` and :meth:`transfer_time` over a request
        sequence: one ``uniform`` call draws the scalar calls' stream, and
        the GC pauses are folded in after the draws (no draw depends on the
        GC counter)."""
        n = sizes.shape[0]
        state = {}
        if is_read:
            startup = self.rng.uniform(self.read_alpha_min, self.read_alpha_max, n)
            beta = self.beta_read
        else:
            startup = self.rng.uniform(self.write_alpha_min, self.write_alpha_max, n)
            if self.gc_window > 0:
                crossed, state["_bytes_since_gc"] = self._gc_crossings(sizes)
                startup = np.where(crossed, startup + self.gc_pause, startup)
            beta = self.beta_write
        engaged = np.minimum(self.n_channels, np.maximum(1, -(-sizes // self.channel_chunk)))
        speedup = CHANNEL_FLOOR + CHANNEL_SPAN * (engaged / self.n_channels)
        return startup, sizes * beta / speedup, state
