"""``StorageDevice.service_batch`` equals scalar ``service_breakdown`` calls.

The columnar replay tier and the calibration probes serve a request
sequence with one batched device call. That call must leave the device
exactly where the scalar path would: the same (startup, transfer) floats
bit for bit, the same RNG state (every ``Generator.uniform`` draw in
order), the same head position, GC counter and traffic counters once
committed. The property draws positional and non-positional HDDs, SSD
reads and writes, GC windows that a batch crosses (some reached by a
single write), GC counters that start at or above a window, zero-size
requests and degraded devices (``slowdown != 1``).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.base import OpType
from repro.devices.hdd import HDDModel
from repro.devices.ssd import SSDModel
from repro.util.units import KiB, MiB

_SIZES = st.one_of(
    st.sampled_from((0, 4 * KiB, 64 * KiB, 128 * KiB, 1 * MiB)),
    st.integers(min_value=1, max_value=3 * MiB),
)


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(("hdd", "hdd-positional", "ssd")))
    seed = draw(st.integers(min_value=0, max_value=2**16))
    if kind == "ssd":
        window = draw(st.sampled_from((0, 64 * KiB, 256 * KiB, 1 * MiB, 256 * MiB)))
        kwargs = {"gc_window": window, "gc_pause": 2.0e-4}
        state = {"_bytes_since_gc": draw(st.integers(min_value=0, max_value=2 * window))}
    else:
        kwargs = {"positional": kind == "hdd-positional", "capacity": 64 * MiB}
        state = {"_head_position": draw(st.integers(min_value=0, max_value=96 * MiB))}
    n = draw(st.integers(min_value=1, max_value=60))
    sizes = draw(st.lists(_SIZES, min_size=n, max_size=n))
    offsets = draw(
        st.lists(st.integers(min_value=0, max_value=96 * MiB), min_size=n, max_size=n)
    )
    return {
        "kind": kind,
        "seed": seed,
        "kwargs": kwargs,
        "state": state,
        "is_read": draw(st.booleans()),
        "slowdown": draw(st.sampled_from((1.0, 1.5, 3.0))),
        "offsets": np.array(offsets, dtype=np.int64),
        "sizes": np.array(sizes, dtype=np.int64),
    }


def _device(case):
    cls = SSDModel if case["kind"] == "ssd" else HDDModel
    device = cls(seed=case["seed"], name="probe", **case["kwargs"])
    for name, value in case["state"].items():
        setattr(device, name, value)
    device.slowdown = case["slowdown"]
    return device


def _scalar(case):
    device = _device(case)
    op = OpType.READ if case["is_read"] else OpType.WRITE
    pairs = [
        device.service_breakdown(op, offset, size)
        for offset, size in zip(case["offsets"].tolist(), case["sizes"].tolist())
    ]
    return device, np.array(pairs).reshape(-1, 2)


def _counters(device) -> tuple:
    return (
        device.bytes_read,
        device.bytes_written,
        device.requests_served,
        getattr(device, "_head_position", None),
        getattr(device, "_bytes_since_gc", None),
    )


@settings(max_examples=400, deadline=None)
@given(_cases())
def test_batched_stream_matches_scalar_calls(case):
    ref, ref_pairs = _scalar(case)
    device = _device(case)
    before = _counters(device)
    batch = device.service_batch(case["is_read"], case["offsets"], case["sizes"])
    assert batch.startup.tobytes() == ref_pairs[:, 0].tobytes()
    assert batch.transfer.tobytes() == ref_pairs[:, 1].tobytes()
    assert device.rng.bit_generator.state == ref.rng.bit_generator.state
    assert _counters(device) == before  # nothing but the RNG moves before commit
    batch.commit()
    assert _counters(device) == _counters(ref)


def test_single_write_of_many_windows_keeps_paying():
    """A write of three GC windows pays once and leaves two windows of
    debt, so the next two writes pay too, as in the scalar rule."""
    case = {
        "kind": "ssd", "seed": 1, "kwargs": {"gc_window": 1 * MiB}, "state": {},
        "is_read": False, "slowdown": 1.0,
        "offsets": np.zeros(4, dtype=np.int64),
        "sizes": np.array([3 * MiB, 4 * KiB, 4 * KiB, 4 * KiB], dtype=np.int64),
    }
    ref, ref_pairs = _scalar(case)
    device = _device(case)
    batch = device.service_batch(False, case["offsets"], case["sizes"])
    assert batch.startup.tobytes() == ref_pairs[:, 0].tobytes()
    assert (batch.startup[:3] > 2.0e-4).all() and batch.startup[3] < 2.0e-4
    batch.commit()
    assert device._bytes_since_gc == ref._bytes_since_gc == 12 * KiB


def test_only_the_defining_class_serves_in_numpy():
    """A subclass may change anything the numpy stream inlines (a scalar
    formula, ``_channel_speedup``, a ``beta_*`` property), so only the
    class that defines ``_service_stream`` itself is ``batchable`` (what
    the columnar tier requires). Every other device still serves batches,
    through its scalar calls, with nothing left to commit."""

    class Slower(HDDModel):
        def transfer_time(self, op, size):
            return 2 * super().transfer_time(op, size)

    class Flat(SSDModel):
        def _channel_speedup(self, size):
            return 1.0

    class Renamed(HDDModel):
        pass

    assert HDDModel().batchable and SSDModel().batchable
    assert not (Slower().batchable or Flat().batchable or Renamed().batchable)
    offsets = np.array([0, 8 * MiB, 1 * MiB, 0], dtype=np.int64)
    sizes = np.array([64 * KiB, 0, 3 * MiB, 4 * KiB], dtype=np.int64)
    for cls in (Slower, Flat, Renamed):
        for is_read in (True, False):
            device = cls(seed=2, gc_window=1 * MiB) if cls is Flat else cls(seed=2)
            ref = cls(seed=2, gc_window=1 * MiB) if cls is Flat else cls(seed=2)
            device.slowdown = ref.slowdown = 1.5
            op = OpType.READ if is_read else OpType.WRITE
            want = np.array(
                [ref.service_breakdown(op, o, s) for o, s in zip(offsets.tolist(), sizes.tolist())]
            )
            batch = device.service_batch(is_read, offsets, sizes)
            assert batch.startup.tobytes() == want[:, 0].tobytes()
            assert batch.transfer.tobytes() == want[:, 1].tobytes()
            assert _counters(device) == _counters(ref)
            batch.commit()
            assert _counters(device) == _counters(ref)
            assert device.rng.bit_generator.state == ref.rng.bit_generator.state
