"""Round-robin striping math for heterogeneous stripe sizes.

The layout under study (paper Sec. III-D): ``M`` HServers with stripe ``h``
and ``N`` SServers with stripe ``s``, striped round-robin. One *round* is
``S = M·h + N·s`` logical bytes; within a round, bytes ``[i·h, (i+1)·h)`` go
to HServer ``i`` and bytes ``[M·h + j·s, M·h + (j+1)·s)`` go to SServer
``j``. Each server stores its stripes back-to-back in its local file, so a
contiguous logical request maps to **at most one contiguous physical
extent per server** (middle rounds always cover every window fully).

The geometry generalizes to K ordered server classes with their own counts
and stripes (the multi-tier extension in :mod:`repro.pfs.tiered`):
:class:`StripingGeometry` derives every window from ``class_counts`` and
``stripes`` alone, and both :class:`StripingConfig` (K = 2) and
``MultiClassStripingConfig`` inherit it.

The whole module rests on one closed form. For a server whose in-round
window is ``[a, a + w)``, the number of that server's bytes below logical
offset ``x`` is::

    F(x) = floor(x / S) · w + clip(x mod S − a, 0, w)

``F`` is monotone and exactly partitions bytes among servers, so a request
``[o, o + r)`` gives server ``i`` the physical extent
``[F_i(o), F_i(o + r))``. ``F`` is written out in three forms, one per kind
of traffic:

- :meth:`StripingGeometry.decompose`, scalar, for the per-request DES. It
  runs once per simulated request (tens of thousands of times per fault
  run), where a plain Python loop over the servers beats any numpy call,
  and memoizes that loop's result per offset within the round and size.
- :func:`decompose_batch_flat`, flat sub-request columns over a whole
  request batch, for the batch replay tiers.
- :func:`class_critical_params`, per-class (largest sub-request, servers
  touched) over a (candidates × requests) grid, for Algorithm 2's cost
  models; it never materializes the sub-requests. Its input is a
  :func:`round_split`, in int32 when the round and request sizes allow.

The paper's Figure 5 publishes case-analysis closed forms for case (a)
(request begins and ends on HServers); :func:`paper_case_a_params`
implements them verbatim so tests can compare against the exact math.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.util.units import format_size

#: Most per-server shapes one striping config memoizes for ``decompose``.
DECOMPOSE_MEMO_SIZE = 4096

#: Elements per block of :func:`round_split`'s int64 ``divmod``.
SPLIT_BLOCK = 8192


@dataclass(frozen=True)
class SubRequest:
    """One server's share of a logical request.

    ``offset`` and ``size`` address the server's *local* file (physical
    bytes).
    """

    server_id: int
    offset: int
    size: int


class StripingGeometry:
    """Round-robin striping over K ordered server classes.

    Subclasses provide ``class_counts`` (servers per class) and ``stripes``
    (stripe size per class); everything here derives from those two tuples.
    Class ``i`` owns the next ``class_counts[i]`` server ids, and each of
    its servers holds a window of ``stripes[i]`` bytes per round, in server
    order. A class with stripe 0 receives no data.
    """

    @cached_property
    def round_size(self) -> int:
        """Bytes per striping round: S = Σ count_i · stripe_i."""
        return sum(count * stripe for count, stripe in zip(self.class_counts, self.stripes))

    @property
    def n_servers(self) -> int:
        """Total server count."""
        return sum(self.class_counts)

    @property
    def n_classes(self) -> int:
        """Number of performance classes."""
        return len(self.class_counts)

    @cached_property
    def _windows(self) -> tuple[tuple[int, int, int], ...]:
        """``(start, width, class)`` of every server's in-round window.

        ``decompose`` runs once per simulated request; recomputing the
        windows per call dominated its profile, so each config computes
        them once.
        """
        windows = []
        start = 0
        for class_index, (count, stripe) in enumerate(zip(self.class_counts, self.stripes)):
            for _ in range(count):
                windows.append((start, stripe, class_index))
                start += stripe
        return tuple(windows)

    def _check_server(self, server_id: int) -> tuple[int, int, int]:
        if not (0 <= server_id < len(self._windows)):
            raise IndexError(f"server_id {server_id} out of range 0..{self.n_servers - 1}")
        return self._windows[server_id]

    def server_window(self, server_id: int) -> tuple[int, int]:
        """In-round byte window ``[a, b)`` of ``server_id``."""
        start, width, _ = self._check_server(server_id)
        return (start, start + width)

    def class_of(self, server_id: int) -> int:
        """Performance-class index of a server."""
        return self._check_server(server_id)[2]

    @cached_property
    def _shapes(self) -> dict[tuple[int, int], tuple[tuple[int, int, int, int], ...]]:
        """Memo of :meth:`decompose`'s per-server shape (see there)."""
        return {}

    def decompose(self, offset: int, size: int) -> list[SubRequest]:
        """Split logical request ``[offset, offset+size)`` into sub-requests.

        Returns one :class:`SubRequest` per touched server, ordered by server
        id. The sub-request sizes always sum to ``size`` and each is a single
        contiguous extent in the server's local file.

        Shifting a request by whole rounds shifts each server's extent by
        whole windows and changes nothing else, so the per-server shape is
        memoized on ``(offset mod S, size)`` and shifted by ``q·w`` for
        ``q = offset // S``, which is exact. The memo holds at most
        ``DECOMPOSE_MEMO_SIZE`` shapes and starts over when full.
        """
        if offset < 0:
            raise ValueError(f"offset must be >= 0, got {offset}")
        if size < 0:
            raise ValueError(f"size must be >= 0, got {size}")
        if size == 0:
            return []
        rounds, rem = divmod(offset, self.round_size)
        shapes = self._shapes
        key = (rem, size)
        shape = shapes.get(key)
        if shape is None:
            if len(shapes) >= DECOMPOSE_MEMO_SIZE:
                shapes.clear()
            shape = shapes[key] = self._shape(rem, size)
        return [
            SubRequest(server_id=server_id, offset=rounds * w + start, size=n)
            for server_id, w, start, n in shape
        ]

    def _shape(self, rem: int, size: int) -> tuple[tuple[int, int, int, int], ...]:
        """``(server, window width, extent start, extent size)`` per touched
        server for a request starting ``rem`` bytes into round 0."""
        full_end, rem_end = divmod(rem + size, self.round_size)
        shape = []
        for server_id, (a, w, _) in enumerate(self._windows):
            if w == 0:
                continue
            rel = rem - a
            p_start = 0 if rel < 0 else (w if rel > w else rel)
            rel = rem_end - a
            p_end = full_end * w + (0 if rel < 0 else (w if rel > w else rel))
            if p_end > p_start:
                shape.append((server_id, w, p_start, p_end - p_start))
        return tuple(shape)

    def critical_params_per_class(self, offset: int, size: int) -> list[tuple[int, int]]:
        """Per-class ``(largest sub-request, servers touched)`` for one request.

        The K-class form of the cost model's critical parameters, in the
        shape :func:`class_critical_params` returns per class.
        """
        largest = [0] * self.n_classes
        touched = [0] * self.n_classes
        windows = self._windows
        for sub in self.decompose(offset, size):
            class_index = windows[sub.server_id][2]
            touched[class_index] += 1
            largest[class_index] = max(largest[class_index], sub.size)
        return list(zip(largest, touched))


@dataclass(frozen=True)
class StripingConfig(StripingGeometry):
    """A (M, N, h, s) striping choice for one file or file region.

    ``n_hservers``/``n_sservers`` are the paper's M and N; ``hstripe`` and
    ``sstripe`` are h and s in bytes. ``h == 0`` (or ``s == 0``) excludes
    that server class entirely — the paper's Fig. 9 optimum {0K, 64K} places
    data on SServers only. Servers ``0 .. M-1`` are HServers; ``M .. M+N-1``
    are SServers, following the paper's numbering.
    """

    n_hservers: int
    n_sservers: int
    hstripe: int
    sstripe: int

    def __post_init__(self):
        if self.n_hservers < 0 or self.n_sservers < 0:
            raise ValueError("server counts must be >= 0")
        if self.hstripe < 0 or self.sstripe < 0:
            raise ValueError("stripe sizes must be >= 0")
        if self.round_size <= 0:
            raise ValueError(
                "striping config distributes no data: need M*h + N*s > 0 "
                f"(M={self.n_hservers}, N={self.n_sservers}, "
                f"h={self.hstripe}, s={self.sstripe})"
            )

    @property
    def class_counts(self) -> tuple[int, ...]:
        """Servers per performance class: (M, N)."""
        return (self.n_hservers, self.n_sservers)

    @property
    def stripes(self) -> tuple[int, ...]:
        """Stripe size per class: (h, s). The RST merges on this tuple."""
        return (self.hstripe, self.sstripe)

    def is_hserver(self, server_id: int) -> bool:
        """True if ``server_id`` indexes an HServer."""
        return 0 <= server_id < self.n_hservers

    def to_dict(self) -> dict:
        """JSON-serializable form (see ``config_from_dict``)."""
        return {
            "type": "hybrid",
            "n_hservers": self.n_hservers,
            "n_sservers": self.n_sservers,
            "hstripe": self.hstripe,
            "sstripe": self.sstripe,
        }

    def describe(self) -> str:
        """Figure-legend style description, e.g. ``"36K-148K"`` or ``"64K"``."""
        h, s = format_size(self.hstripe), format_size(self.sstripe)
        if self.hstripe == self.sstripe:
            return h
        return f"{h}-{s}"


@dataclass(frozen=True)
class CriticalParams:
    """The cost model's four critical parameters for one request.

    ``s_m``/``s_n`` — largest sub-request size on any HServer / SServer;
    ``m``/``n`` — number of HServers / SServers receiving a sub-request.
    """

    s_m: int
    s_n: int
    m: int
    n: int


def decompose(config: StripingGeometry, offset: int, size: int) -> list[SubRequest]:
    """Function form of :meth:`StripingGeometry.decompose`."""
    return config.decompose(offset, size)


def decompose_batch_flat(
    config: StripingGeometry,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:meth:`StripingGeometry.decompose` over many requests, as flat columns.

    Returns ``(piece_index, server_id, sub_offset, sub_size)`` int64 arrays,
    one entry per non-empty sub-request, ordered by ``(input piece,
    server_id)`` — the exact order in which ``decompose`` would emit them
    per piece. No per-request Python lists are materialized; the batch
    replay tiers consume the columns directly.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape or offsets.ndim != 1:
        raise ValueError("offsets and sizes must be equal-length 1-D arrays")
    if offsets.size and (int(offsets.min()) < 0 or int(sizes.min()) < 0):
        raise ValueError("offsets and sizes must be >= 0")
    empty = np.empty(0, dtype=np.int64)
    if offsets.size == 0:
        return empty, empty, empty, empty
    S = config.round_size
    windows = np.asarray(config._windows, dtype=np.int64)  # (n_servers, 3)
    a = windows[:, 0][None, :]
    w = windows[:, 1][None, :]

    full_start, rem_start = np.divmod(offsets[:, None], S)
    full_end, rem_end = np.divmod((offsets + sizes)[:, None], S)
    p_start = full_start * w + np.clip(rem_start - a, 0, w)
    sub_sizes = full_end * w + np.clip(rem_end - a, 0, w) - p_start

    # nonzero over the (piece × server) matrix yields row-major order:
    # piece-ascending, server-ascending within a piece — decompose's order.
    piece, server = np.nonzero(sub_sizes > 0)
    return (
        piece.astype(np.int64, copy=False),
        server.astype(np.int64, copy=False),
        p_start[piece, server],
        sub_sizes[piece, server],
    )


def critical_params(config: StripingConfig, offset: int, size: int) -> CriticalParams:
    """Exact (s_m, s_n, m, n) for one request under ``config``."""
    (s_m, m), (s_n, n) = config.critical_params_per_class(offset, size)
    return CriticalParams(s_m=s_m, s_n=s_n, m=m, n=n)


def round_split(
    offsets: np.ndarray, sizes: np.ndarray, round_sizes: int | np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Split requests ``[x, y)`` by round sizes: ``(rx, ry, qy − qx)``.

    With ``x = qx·S + rx`` and ``y = qy·S + ry``, this is everything
    :func:`class_critical_params` needs of a request, for every class of
    every candidate sharing the round size ``S``. ``round_sizes`` broadcasts
    against the int64 request arrays (a scalar, or a ``(n, 1)`` column for
    ``n`` round sizes); the ``divmod`` runs in int64 and is exact.

    The results are int32 when ``max(S) + max(size) < 2**31``, else int64.
    Under that bound every value the class kernel forms fits int32:
    ``rx, ry < S``, window ends are at most ``S``, clip differences lie in
    ``(−S, S)``, and ``(qy − qx)·w <= (qy − qx)·S = size + rx − ry <
    size + S``. The kernel works in whatever dtype it is given, so both
    sides of the bound run the same code.
    """
    limit = int(np.max(round_sizes)) + (int(sizes.max()) if sizes.size else 0)
    dtype = np.int32 if limit < 2**31 else np.int64
    shape = np.broadcast_shapes(np.shape(offsets), np.shape(round_sizes))
    starts = np.reshape(offsets, -1)
    ends = starts + np.reshape(sizes, -1)
    columns = np.reshape(round_sizes, (-1, 1))
    split = tuple(np.empty((columns.shape[0], starts.size), dtype=dtype) for _ in range(3))
    # Split a block of round sizes at a time, so the int64 quotients stay
    # small heap allocations however many round sizes there are.
    rows = max(1, SPLIT_BLOCK // max(1, starts.size))
    for lo in range(0, columns.shape[0], rows):
        S = columns[lo : lo + rows]
        rx, ry, dq = (part[lo : lo + rows] for part in split)
        qx, rx[...] = np.divmod(starts, S)
        qy, ry[...] = np.divmod(ends, S)
        np.subtract(qy, qx, out=dq, casting="unsafe")
    return tuple(part.reshape(shape) for part in split)


def class_critical_params(
    rx: np.ndarray,
    ry: np.ndarray,
    dq: np.ndarray,
    base: int | np.ndarray,
    width: int | np.ndarray,
    count: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Largest sub-request and servers touched, per request, for one class.

    Requests arrive as a :func:`round_split`, ``(rx, ry, qy − qx)``, so
    every class shares one ``divmod``. The class holds ``count`` servers of
    window width ``width``; server ``j``'s window starts at
    ``a_j = base + j·width`` and it receives ``F(y) − F(x) = (qy − qx)·w +
    clip(ry − a_j, 0, w) − clip(rx − a_j, 0, w)`` bytes. The first term is
    the same for every server of the class, so the loop over the servers
    keeps the running max of the clip difference and counts the servers
    where it exceeds ``−(qy − qx)·w``; the rounds term is added once at the
    end. The loop runs on request-shaped arrays: a short server axis as
    the innermost numpy axis costs more than the arithmetic.

    All arguments broadcast together; ``base`` and ``width`` may be scalars
    or per-candidate columns. The arithmetic runs in the split's dtype
    (see :func:`round_split` for why it cannot overflow): ``largest`` comes
    back in that dtype, ``touched`` as ``intp``, ready to index a table. A
    class with no servers or zero width touches nothing.
    """
    dtype = rx.dtype
    shape = np.broadcast_shapes(np.shape(rx), np.shape(base), np.shape(width))
    if count == 0 or not np.any(width):
        return np.zeros(shape, dtype=dtype), np.zeros(shape, dtype=np.intp)
    # Window geometry as full arrays: numpy's element-wise ufuncs run
    # several times faster on two full operands than on a broadcast column.
    start = np.empty(shape, dtype=dtype)
    start[...] = base
    full_width = np.empty(shape, dtype=dtype)
    full_width[...] = width
    end = np.empty(shape, dtype=dtype)
    rounds = dq * full_width
    floor = -rounds
    # A byte-wide running count adds each server's hit mask without a cast.
    touched = np.zeros(shape, dtype=np.int8 if count < 128 else np.intp)
    largest = np.empty(shape, dtype=dtype)
    diff = np.empty(shape, dtype=dtype)
    low = np.empty(shape, dtype=dtype)
    hit = np.empty(shape, dtype=bool)
    out = largest  # server 0 starts the running maximum in place
    for _ in range(count):
        # clip(r − a, 0, w) = min(max(r, a), a + w) − a; the − a cancels.
        np.add(start, full_width, out=end)
        np.minimum(np.maximum(ry, start, out=out), end, out=out)
        np.minimum(np.maximum(rx, start, out=low), end, out=low)
        out -= low
        if out is diff:
            np.maximum(largest, diff, out=largest)
        touched += np.greater(out, floor, out=hit).view(np.int8)
        out = diff
        start, end = end, start
    largest += rounds
    return largest, touched.astype(np.intp, copy=False)


def critical_params_vectorized(
    config: StripingConfig,
    offsets: np.ndarray,
    sizes: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized (s_m, s_n, m, n) over arrays of requests.

    Args:
        config: the striping choice under evaluation.
        offsets, sizes: integer arrays of equal length (bytes).

    Returns:
        ``(s_m, s_n, m, n)`` int64 arrays, one entry per request, from one
        :func:`class_critical_params` call per server class.
    """
    offsets = np.asarray(offsets, dtype=np.int64)
    sizes = np.asarray(sizes, dtype=np.int64)
    if offsets.shape != sizes.shape:
        raise ValueError("offsets and sizes must have the same shape")
    if np.any(offsets < 0) or np.any(sizes < 0):
        raise ValueError("offsets and sizes must be >= 0")
    split = round_split(offsets, sizes, config.round_size)
    M, h = config.n_hservers, config.hstripe
    s_m, m = class_critical_params(*split, 0, h, M)
    s_n, n = class_critical_params(*split, M * h, config.sstripe, config.n_sservers)
    return tuple(a.astype(np.int64, copy=False) for a in (s_m, s_n, m, n))


def paper_case_a_params(config: StripingConfig, offset: int, size: int) -> CriticalParams:
    """Figure 5's closed forms for case (a): request begins AND ends on HServers.

    Implemented verbatim from the paper (including its notation
    ``Δr = r_e − r_b``, ``Δc = n_e − n_b``) for fidelity testing against
    :func:`critical_params`. Only valid when both the beginning and ending
    sub-requests land on HServers and h > 0; raises ``ValueError`` otherwise.
    """
    M, N = config.n_hservers, config.n_sservers
    h, s = config.hstripe, config.sstripe
    if h <= 0 or M <= 0:
        raise ValueError("case (a) requires M > 0 and h > 0")
    S = config.round_size
    o, r = offset, size
    r_b = o // S
    r_e = (o + r) // S
    l_b = o - r_b * S
    l_e = (o + r) - r_e * S
    if l_b >= M * h or l_e > M * h:
        raise ValueError("request does not begin and end on HServers (not case (a))")
    n_b = l_b // h
    # The ending sub-request's server: l_e is an exclusive bound, so the last
    # byte sits at l_e - 1 (the paper's floor(l_e/h) with l_e on a stripe
    # boundary would point one server too far).
    n_e = (l_e - 1) // h if l_e > 0 else -1
    s_b = h - l_b % h
    s_e = l_e - n_e * h if l_e > 0 else 0
    delta_r = r_e - r_b
    delta_c = n_e - n_b

    if delta_r == 0:
        if delta_c == 0:
            return CriticalParams(s_m=min(s_b, r), s_n=0, m=1, n=0)
        if delta_c == 1:
            return CriticalParams(s_m=max(s_b, s_e), s_n=0, m=delta_c + 1, n=0)
        return CriticalParams(s_m=h, s_n=0, m=delta_c + 1, n=0)
    # delta_r >= 1: the request wraps at least one full round boundary.
    s_n = delta_r * s if N > 0 else 0
    n = N if N > 0 and s > 0 else 0
    if delta_c == 0:
        s_m = max(delta_r * h - h + s_b + s_e, delta_r * h)
        return CriticalParams(s_m=s_m, s_n=s_n, m=M, n=n)
    if n_b + 1 == M and n_e == 0:
        s_m = max(delta_r * h - h + s_b, delta_r * h - h + s_e)
        m = 2 if delta_r == 1 else M
        return CriticalParams(s_m=s_m, s_n=s_n, m=m, n=n)
    s_m = delta_r * h
    m = (M + 1 + delta_c) if delta_c < -1 else M
    return CriticalParams(s_m=s_m, s_n=s_n, m=m, n=n)
