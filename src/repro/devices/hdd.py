"""Hard disk drive model.

Two startup modes:

- **uniform** (default): startup sampled Uniform(α_min, α_max). This is the
  paper's own modeling assumption (Sec. III-D derives the startup order
  statistics from a uniform distribution), so the simulated testbed and the
  analytic model share a ground truth.
- **positional**: startup = fixed overhead + seek proportional to
  sqrt(head travel distance) + rotational latency sample. This is the more
  physical model used in ablations to show HARL's gains survive a testbed
  that deviates from the cost model's assumptions.

Default parameters approximate a 7.2k RPM SATA disk behind an OrangeFS
server under a concurrent multi-client stream: ~0.05–0.15 ms *effective*
per-request startup (the server's queue-sorted scheduling amortizes raw
seeks across the deep queue) and ~45 MiB/s *effective* transfer (interleaved
streams from 16 clients break sequentiality, well below the ~100 MiB/s
single-stream rate). Reads and writes are symmetric, as in the paper
(HServers have one α/β set, Table I). These defaults put the simulated
testbed in the paper's regime: HServers several times slower than SServers
under identical 64K stripes (Fig. 1a) and transfer-dominated request costs
that reward stripe rebalancing — see EXPERIMENTS.md.
"""

from __future__ import annotations

import numpy as np

from repro.devices.base import OpType, StorageDevice
from repro.util.units import MiB, GiB
from repro.util.validation import check_non_negative, check_positive

#: Positional startup split: shares of the (α_max - α_min) span spent on
#: the distance-dependent seek and on the uniform rotational latency.
SEEK_SHARE = 0.6
ROTATION_SHARE = 0.4


class HDDModel(StorageDevice):
    """Seek-dominated rotating disk.

    Args:
        alpha_min: minimum startup time (seconds).
        alpha_max: maximum startup time (seconds).
        bandwidth: streaming transfer rate (bytes/second).
        positional: if True, use the head-position seek model instead of the
            uniform startup draw.
        capacity: addressable bytes (for positional distance scaling).
        seed: RNG seed or generator for the startup stream.
    """

    def __init__(
        self,
        alpha_min: float = 1.0e-4,
        alpha_max: float = 3.0e-4,
        bandwidth: float = 45 * MiB,
        positional: bool = False,
        capacity: int = 250 * GiB,
        seed: int | np.random.Generator | None = None,
        name: str = "hdd",
    ):
        super().__init__(seed=seed, name=name)
        check_non_negative("alpha_min", alpha_min)
        check_non_negative("alpha_max", alpha_max)
        if alpha_max < alpha_min:
            raise ValueError(f"alpha_max ({alpha_max}) < alpha_min ({alpha_min})")
        check_positive("bandwidth", bandwidth)
        check_positive("capacity", capacity)
        self.alpha_min = float(alpha_min)
        self.alpha_max = float(alpha_max)
        self.bandwidth = float(bandwidth)
        self.positional = bool(positional)
        self.capacity = int(capacity)
        self._head_position = 0

    @property
    def beta(self) -> float:
        """Per-byte transfer time (the Table-I β_h)."""
        return 1.0 / self.bandwidth

    def startup_time(self, op: OpType, offset: int, size: int) -> float:
        if not self.positional:
            return float(self.rng.uniform(self.alpha_min, self.alpha_max))
        # Positional: seek grows with sqrt of normalized head travel (a
        # standard first-order seek curve), plus uniform rotational latency
        # bounded so total startup stays within [alpha_min, alpha_max].
        distance = abs(offset - self._head_position) / self.capacity
        seek_span = self.alpha_max - self.alpha_min
        seek = self.alpha_min + SEEK_SHARE * seek_span * float(np.sqrt(min(1.0, distance)))
        rotation = float(self.rng.uniform(0.0, ROTATION_SHARE * seek_span))
        self._head_position = offset + size
        return seek + rotation

    def transfer_time(self, op: OpType, size: int) -> float:
        return size * self.beta

    def _service_stream(self, is_read: bool, offsets: np.ndarray, sizes: np.ndarray):
        """:meth:`startup_time` and :meth:`transfer_time` over a request
        sequence: one ``uniform`` call draws the scalar calls' stream, and
        each positional seek starts where the previous request ended."""
        n = sizes.shape[0]
        if not self.positional:
            startup = self.rng.uniform(self.alpha_min, self.alpha_max, n)
            return startup, sizes * self.beta, {}
        heads = np.empty_like(offsets)
        heads[0] = self._head_position
        np.add(offsets[:-1], sizes[:-1], out=heads[1:])
        distance = np.abs(offsets - heads) / float(self.capacity)
        seek_span = self.alpha_max - self.alpha_min
        seek = self.alpha_min + (SEEK_SHARE * seek_span) * np.sqrt(np.minimum(1.0, distance))
        startup = seek + self.rng.uniform(0.0, ROTATION_SHARE * seek_span, n)
        state = {"_head_position": int(offsets[-1] + sizes[-1])}
        return startup, sizes * self.beta, state
