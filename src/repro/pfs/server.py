"""A file server: one storage device behind FIFO disk and NIC queues.

Service discipline per sub-request:

- **write**: the payload crosses the server NIC first (client → server), then
  the disk services it.
- **read**: the disk services it, then the payload crosses the NIC
  (server → client).

Both the NIC and the disk are capacity-1 FIFO resources, so concurrent
clients queue — this is what produces the load imbalance of Figure 1(a):
with identical stripes, HServers accumulate deep disk queues while SServers
drain instantly.

Failure semantics (see :mod:`repro.faults`): a server can be *crashed*
permanently via :meth:`FileServer.mark_failed`. New sub-requests then raise
:class:`~repro.pfs.health.ServerUnavailable` immediately; sub-requests in
flight at crash time are interrupted and fail with the same typed error.
The service generators are interrupt-safe: a cancellation delivered while
queued withdraws the pending resource request, and one delivered while
holding a slot releases it — no grant is ever leaked.
"""

from __future__ import annotations

from collections.abc import Generator

from repro.devices.base import OpType, StorageDevice
from repro.network.link import NetworkModel
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.simulate.engine import Event, Interrupt, Process, Simulator
from repro.simulate.resources import Resource, ScanResource, WFQResource


class FileServer:
    """A PFS data server in the DES.

    Args:
        sim: owning simulator.
        device: the storage medium (HDD or SSD model).
        network: interconnect model used for the NIC stage.
        name: label used in per-server statistics (Fig. 1(a) bars).
        nic_parallelism: concurrent flows the NIC sustains at full rate;
            1 models a fully serialized GigE port.
        disk_scheduler: ``"fifo"`` (default), ``"scan"`` — C-SCAN
            elevator ordering of queued disk operations, worthwhile with
            positional (seek-distance-dependent) device models — or
            ``"wfq"`` — weighted fair queueing over the serving layer's
            per-tenant ``qos`` tags.
    """

    def __init__(
        self,
        sim: Simulator,
        device: StorageDevice,
        network: NetworkModel,
        name: str = "server",
        nic_parallelism: int = 1,
        disk_scheduler: str = "fifo",
    ):
        self.sim = sim
        self.device = device
        self.network = network
        self.name = name
        if disk_scheduler == "fifo":
            self.disk: Resource = Resource(sim, capacity=1, name=f"{name}.disk")
        elif disk_scheduler == "scan":
            self.disk = ScanResource(sim, name=f"{name}.disk")
        elif disk_scheduler == "wfq":
            self.disk = WFQResource(sim, name=f"{name}.disk")
        else:
            raise ValueError(
                f"unknown disk_scheduler {disk_scheduler!r}; use 'fifo', 'scan', or 'wfq'"
            )
        self.nic = Resource(sim, capacity=nic_parallelism, name=f"{name}.nic")
        self.bytes_served = 0
        self.subrequests_served = 0
        # Fault-injection state. ``_active`` stays None until fault tracking
        # is enabled, so the fault-free serve path pays one attribute check.
        self._failed = False
        # In-flight serves are a dict, not a set, so a crash interrupts them
        # in the order they started, never in memory-address order. Each
        # maps to the wake-up of the crash interrupt sent to it, if any.
        self._active: dict[Process, Event | None] | None = None
        #: Per-stripe-unit CRC tags (:mod:`repro.pfs.integrity`); None until
        #: the filesystem enables integrity, so checksum-off serves pay one
        #: attribute comparison.
        self.checksums = None

    # -- failure handling --------------------------------------------------

    @property
    def is_failed(self) -> bool:
        """True once the server was crashed permanently."""
        return self._failed

    def enable_fault_tracking(self) -> None:
        """Start tracking in-flight serve processes (for crash interruption).

        Called by the fault injector before the simulation starts; without
        it, :meth:`mark_failed` still rejects *new* sub-requests but cannot
        cancel those already in flight.
        """
        if self._active is None:
            self._active = {}

    def mark_failed(self) -> None:
        """Crash the server: reject new serves, interrupt in-flight ones.

        In-flight serve processes receive an :class:`Interrupt` whose cause
        is a :class:`ServerUnavailable`; the serve generator converts it so
        waiting clients observe the typed error, not a bare Interrupt.
        """
        if self._failed:
            return
        self._failed = True
        active = self._active
        if active:
            for proc in list(active):
                active[proc] = proc.interrupt(
                    ServerUnavailable(f"{self.name}: server crashed", server=self.name)
                )

    def mark_restored(self) -> None:
        """Rejoin after a crash: accept new sub-requests again.

        The server comes back *empty* — the filesystem drops its extent
        table entries and resets its checksum tags before calling this, so
        nothing written before the crash is assumed to survive the rejoin.
        """
        self._failed = False

    def fast_batch_blocker(self) -> str | None:
        """Why this server disqualifies the batched fast path, or None.

        The arithmetic replay (:mod:`repro.pfs.batch_exec`) assumes plain
        idle FIFO resources: a crashed or fault-tracked server, a C-SCAN
        disk, or any held/busy/queued slot means the replay's shadow state
        would not match the live resources. Checksums do not block — the
        replay commits the same CRC bookkeeping from its flat job table
        (the filesystem-level blocker still excludes poisoned state).
        """
        if self._failed:
            return "failed-server"
        if self._active is not None:
            return "fault-tracking"
        disk = self.disk
        if type(disk) is not Resource:
            return "disk-scheduler"
        if disk._held or disk._in_use or disk._queue:
            return "disk-busy"
        nic = self.nic
        if type(nic) is not Resource:
            return "custom-nic"
        if nic._held or nic._in_use or nic._queue:
            return "nic-busy"
        return None

    # -- service -----------------------------------------------------------

    def serve(self, op: OpType | str, offset: int, size: int) -> Generator:
        """Process generator serving one contiguous sub-request.

        Yields through the NIC and disk stages in op-appropriate order;
        completes when the payload has fully moved. Spawn it with
        ``sim.process(server.serve(...))``. Raises
        :class:`ServerUnavailable` if the server is (or becomes) crashed.

        Both stages run in this one generator frame (every resume of the
        hottest process in the simulator goes through one frame, not two).
        A free NIC or disk slot is taken synchronously (no grant event); a
        busy one is queued for. Each stage is interrupt-safe: a cancellation
        delivered while queued withdraws the pending request, and if it was
        granted in the same instant, gives the slot back; one delivered
        while holding the slot releases it.
        """
        if type(op) is not OpType:
            op = OpType.parse(op)
        if size <= 0:
            return
        if self._failed:
            raise ServerUnavailable(f"{self.name}: server is down", server=self.name)
        sim = self.sim
        active = self._active
        proc = None
        if active is not None:
            proc = sim.active_process
            if proc is not None:
                active[proc] = None
        tracer = sim.tracer
        started = sim.now
        disk = self.disk
        try:
            for resource in (self.nic, disk) if op is OpType.WRITE else (disk, self.nic):
                on_disk = resource is disk
                request = resource.acquire(offset if on_disk else None)
                if request is not None:
                    try:
                        yield request
                    except BaseException:
                        if not resource.cancel(request) and request._triggered:
                            resource.release(request)
                        raise
                try:
                    if not on_disk:
                        delay = self.network.transfer_time(size)
                        if tracer is not None:
                            tracer.record(sim.now, delay, self.name, op.value, offset, size,
                                          "network")
                    elif tracer is None:
                        delay = self.device.service_time(op, offset, size)
                    else:
                        # Same device-model calls in the same order as the
                        # untraced path, split so startup and transfer trace
                        # separately.
                        startup, transfer = self.device.service_breakdown(op, offset, size)
                        start = sim.now
                        tracer.record(start, startup, self.name, op.value, offset, size,
                                      "startup")
                        tracer.record(start + startup, transfer, self.name, op.value, offset,
                                      size, "transfer")
                        delay = startup + transfer
                    yield sim.timeout(delay)
                finally:
                    resource.release(request)
        except Interrupt as exc:
            if isinstance(exc.cause, ServerUnavailable):
                raise exc.cause from None
            raise
        finally:
            if proc is not None:
                # A serve that ended in its crash's instant, before the
                # interrupt landed, must not meet that stale interrupt at the
                # process's next yield.
                wakeup = active.pop(proc, None)
                if wakeup is not None:
                    wakeup.cancel()
        checks = self.checksums
        if checks is not None:
            if op is OpType.WRITE:
                checks.record_write(offset, size)
            else:
                mismatch = checks.first_mismatch(offset, size)
                if mismatch is not None:
                    # The payload crossed the wire (full service cost paid)
                    # but fails client-side verification: a typed error, not
                    # silent garbage — and not a completed serve.
                    raise IntegrityError(
                        f"{self.name}: checksum mismatch reading "
                        f"[{offset}, {offset + size}) "
                        f"(first bad stripe unit at {mismatch})",
                        server=self.name,
                        offset=offset,
                        size=size,
                    )
        self.bytes_served += size
        self.subrequests_served += 1
        if tracer is not None:
            tracer.on_subrequest(self, op, started, sim.now - started, size)

    # -- statistics -------------------------------------------------------

    @property
    def disk_busy_time(self) -> float:
        """Total seconds the disk was serving (the Fig. 1(a) metric)."""
        return self.disk.monitor.snapshot()

    def reset_statistics(self) -> None:
        """Zero traffic counters (busy-time monitors restart from now)."""
        self.bytes_served = 0
        self.subrequests_served = 0
        self.device.reset_counters()
        self.disk.monitor.busy_time = 0.0
        self.nic.monitor.busy_time = 0.0
