"""Capacity-limited resources with FIFO queueing and utilization accounting.

A file server's disk is a :class:`Resource` with capacity 1 (one in-flight
medium operation); its busy time drives the Figure 1(a) per-server I/O-time
reproduction, so :class:`UtilizationMonitor` tracks exact busy intervals.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.simulate.engine import Event, SimulationError, Simulator


class UtilizationMonitor:
    """Tracks total busy seconds of a resource with nesting support."""

    __slots__ = ("_sim", "_busy_since", "_depth", "busy_time")

    def __init__(self, sim: Simulator):
        self._sim = sim
        self._busy_since: float | None = None
        self._depth = 0
        self.busy_time = 0.0

    def acquire(self) -> None:
        """Record that one more user became active."""
        if self._depth == 0:
            self._busy_since = self._sim.now
        self._depth += 1

    def release(self) -> None:
        """Record that one user finished."""
        if self._depth <= 0:
            raise SimulationError("release without matching acquire")
        self._depth -= 1
        if self._depth == 0:
            assert self._busy_since is not None
            self.busy_time += self._sim.now - self._busy_since
            self._busy_since = None

    def snapshot(self) -> float:
        """Busy time including any interval still open at the current time."""
        open_interval = 0.0
        if self._depth > 0 and self._busy_since is not None:
            open_interval = self._sim.now - self._busy_since
        return self.busy_time + open_interval


class Resource:
    """A FIFO resource with integer capacity.

    Usage inside a process::

        grant = yield resource.request()
        try:
            yield sim.timeout(service_time)
        finally:
            resource.release(grant)
    """

    __slots__ = (
        "sim",
        "capacity",
        "name",
        "_in_use",
        "_queue",
        "monitor",
        "granted_count",
        "_held",
    )

    def __init__(self, sim: Simulator, capacity: int = 1, name: str | None = None):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or "resource"
        self._in_use = 0
        self._queue: deque[tuple[object, Event]] = deque()
        self.monitor = UtilizationMonitor(sim)
        self.granted_count = 0
        #: Stall depth (see :meth:`hold`); 0 means grants flow normally.
        self._held = 0

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def queue_length(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._queue)

    def request(self, key: object = None) -> Event:
        """Return an event that fires when a slot is granted.

        The base class grants in FIFO order; scheduling subclasses use
        ``key`` to reorder waiters (e.g. :class:`ScanResource` treats it as
        a disk offset).
        """
        grant = self.acquire(key)
        if grant is None:
            grant = Event(self.sim)
            grant.succeed(self)
        return grant

    def acquire(self, key: object = None) -> Event | None:
        """Take a free slot now, or queue for one.

        Returns None when a slot was free: the caller holds it from this
        instant, with no grant event. Otherwise returns the queued grant
        event to wait on, exactly as :meth:`request` would.
        """
        if not self._held and self._in_use < self.capacity and not self._queue:
            self._take(None)
            return None
        return self._enqueue(key)

    def _enqueue(self, key: object) -> Event:
        grant = Event(self.sim)
        self._queue.append((key, grant))
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_enqueue(self, grant)
        return grant

    def _take(self, grant: Event | None) -> None:
        """Hand one slot to ``grant`` (None for a synchronous acquire)."""
        self._in_use += 1
        self.granted_count += 1
        self.monitor.acquire()
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.on_grant(self, grant)

    def _grant(self, grant: Event) -> None:
        self._take(grant)
        grant.succeed(self)

    def _pop_next(self) -> Event:
        """Pick the next waiter (FIFO here; subclasses reorder)."""
        _, grant = self._queue.popleft()
        return grant

    def cancel(self, grant: Event) -> bool:
        """Withdraw a still-queued request (e.g. the waiter was interrupted).

        Returns True if the grant was queued and removed. A request that was
        already granted cannot be cancelled — release it instead; leaving a
        granted-but-dead waiter would leak the slot forever.
        """
        for index, (_, queued) in enumerate(self._queue):
            if queued is grant:
                del self._queue[index]
                tracer = self.sim.tracer
                if tracer is not None:
                    tracer.on_cancel(self, grant)
                return True
        return False

    def release(self, grant: Any = None) -> None:
        """Release one held slot, waking the next waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release without a held slot")
        self._in_use -= 1
        self.monitor.release()
        if self._queue and not self._held and self._in_use < self.capacity:
            self._grant(self._pop_next())

    def hold(self) -> None:
        """Stall the resource: no new grants until a matching :meth:`resume`.

        In-service holders finish normally (and release), but queued and
        newly arriving requests wait — a transient hang, not a crash. Holds
        nest; the monitor records the stall as idle time, since nothing is
        actually being serviced.
        """
        self._held += 1

    def resume(self) -> None:
        """Undo one :meth:`hold`; drains the queue when the last hold lifts."""
        if self._held <= 0:
            raise SimulationError(f"{self.name}: resume without a matching hold")
        self._held -= 1
        if self._held == 0:
            while self._queue and self._in_use < self.capacity:
                self._grant(self._pop_next())

    def utilization(self, elapsed: float | None = None) -> float:
        """Fraction of ``elapsed`` (default: sim.now) the resource was busy."""
        horizon = self.sim.now if elapsed is None else elapsed
        if horizon <= 0:
            return 0.0
        return min(1.0, self.monitor.snapshot() / horizon)


class ScanResource(Resource):
    """A capacity-1 resource serving waiters in C-SCAN (elevator) order.

    Request ``key``s are positions (disk offsets). The next grant goes to
    the waiter with the smallest key at or beyond the current sweep
    position; when none remain ahead, the sweep wraps to the smallest key
    (circular SCAN). The holder should update :attr:`position` as it
    finishes so the sweep tracks the head. Keyless requests are served
    first-come at position 0.

    Used by :class:`repro.pfs.server.FileServer` with positional disk
    models, where serving a sorted queue genuinely shortens seeks.
    """

    __slots__ = ("position",)

    def __init__(self, sim: Simulator, name: str | None = None):
        super().__init__(sim, capacity=1, name=name)
        self.position = 0

    def _pop_next(self) -> Event:
        keys = [key if key is not None else 0 for key, _ in self._queue]
        ahead = [i for i, key in enumerate(keys) if key >= self.position]
        index = min(ahead, key=lambda i: keys[i]) if ahead else min(
            range(len(keys)), key=lambda i: keys[i]
        )
        key, grant = self._queue[index]
        del self._queue[index]
        self.position = key if key is not None else 0
        return grant


class WFQResource(Resource):
    """A resource granting waiters in weighted-fair (start-time WFQ) order.

    Each request is tagged with the requesting process's ``qos`` attribute —
    a ``(flow, weight)`` pair set by the serving layer (absent/None means
    the default flow at weight 1). The request is stamped with a virtual
    finish time ``max(V, F_flow) + 1/weight`` where ``V`` is the resource's
    virtual clock and ``F_flow`` the flow's previous stamp; grants go to the
    smallest stamp (arrival order breaks ties, so a single flow degenerates
    to FIFO). While several flows stay backlogged, each one's share of
    grants is proportional to its weight.

    Used by :class:`repro.pfs.server.FileServer` when built with
    ``disk_scheduler="wfq"`` — the multi-tenant serving layer tags each
    tenant's sub-request processes with ``(tenant, tier_weight)``.
    """

    __slots__ = ("_vclock", "_flow_finish", "_seq")

    def __init__(self, sim: Simulator, capacity: int = 1, name: str | None = None):
        super().__init__(sim, capacity=capacity, name=name)
        self._vclock = 0.0
        self._flow_finish: dict[Any, float] = {}
        self._seq = 0

    def _stamp(self) -> float:
        proc = self.sim.active_process
        qos = getattr(proc, "qos", None) if proc is not None else None
        flow, weight = qos if qos is not None else (None, 1.0)
        start = self._flow_finish.get(flow, 0.0)
        if start < self._vclock:
            start = self._vclock
        finish = start + 1.0 / weight
        self._flow_finish[flow] = finish
        return finish

    def acquire(self, key: object = None) -> Event | None:
        # The WFQ stamp replaces any positional key the caller passed; the
        # fairness tag comes from the active process, not the call site.
        finish = self._stamp()
        if not self._held and self._in_use < self.capacity and not self._queue:
            self._vclock = finish  # uncontended: virtual clock tracks service
            self._take(None)
            return None
        self._seq += 1
        return self._enqueue((finish, self._seq))

    def _pop_next(self) -> Event:
        index = min(range(len(self._queue)), key=lambda i: self._queue[i][0])
        key, grant = self._queue[index]
        del self._queue[index]
        if key[0] > self._vclock:
            self._vclock = key[0]
        return grant


class Store:
    """An unbounded FIFO message store (producer/consumer channel).

    Used by the simulated MPI layer for point-to-point sends: ``put`` never
    blocks, ``get`` returns an event that fires when an item is available.
    """

    __slots__ = ("sim", "name", "_items", "_getters")

    def __init__(self, sim: Simulator, name: str | None = None):
        self.sim = sim
        self.name = name or "store"
        self._items: deque[Any] = deque()
        self._getters: deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self) -> Event:
        """Return an event that fires with the next item (FIFO)."""
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event
