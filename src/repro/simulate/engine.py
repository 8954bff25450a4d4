"""Event heap, events, and generator-coroutine processes.

The execution model:

- :class:`Simulator` owns a binary heap of ``(time, sequence, event)`` for
  events due later, and a FIFO ready queue for events due now (zero-delay
  events: process bootstraps, resource grants, completions). Dispatch
  follows ``(time, sequence)`` order across both; see :meth:`Simulator.run`.
  :meth:`Simulator.quiescent` tells a process when a zero-delay event it
  would schedule is the next thing dispatched, so it may skip the event.
- An :class:`Event` is a one-shot occurrence with a value and callbacks.
- A :class:`Process` wraps a generator. Each ``yield``ed event registers the
  process as a callback; when the event fires, the generator is resumed with
  the event's value (or the event's exception is thrown into it).

Time is a float in **seconds** everywhere in this library.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Callable, Generator, Iterable
from types import GeneratorType
from typing import Any

_heappush = heapq.heappush
_heappop = heapq.heappop


class SimulationError(RuntimeError):
    """Raised for invalid kernel usage (double-trigger, yield of non-event)."""


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`.

    The ``cause`` attribute carries the interrupter's payload.
    """

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence on the simulator timeline.

    An event starts *pending*, becomes *triggered* when scheduled (value
    decided), and *processed* after its callbacks ran. Values propagate to
    every waiter; failures (``fail``) propagate as raised exceptions inside
    waiting processes.
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_exception",
        "_triggered",
        "_processed",
        "_cancelled",
    )

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: list[Callable[[Event], None]] | None = []
        self._value: Any = None
        self._exception: BaseException | None = None
        self._triggered = False
        self._processed = False
        self._cancelled = False

    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled with a decided value."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        return self._exception is None

    @property
    def value(self) -> Any:
        """The event's payload; raises the failure exception for failed events."""
        if not self._triggered:
            raise SimulationError("event has not been triggered yet")
        if self._exception is not None:
            raise self._exception
        return self._value

    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully after ``delay`` (default: now)."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not delay >= 0:  # Also rejects NaN.
            raise ValueError(f"event delay must be >= 0, got {delay}")
        self._triggered = True
        self._value = value
        self.sim._schedule(self, delay)
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event as failed; waiters see ``exception`` raised."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        if not delay >= 0:
            raise ValueError(f"event delay must be >= 0, got {delay}")
        self._triggered = True
        self._exception = exception
        self.sim._schedule(self, delay)
        return self

    @property
    def cancelled(self) -> bool:
        """True once the event was lazily cancelled (see :meth:`cancel`)."""
        return self._cancelled

    def cancel(self) -> None:
        """Lazily cancel a scheduled event: its callbacks never run.

        The queue entry stays in place (removing from the middle of a binary
        heap is O(n)); the run loop discards the event at its pop time
        instead of dispatching it. Time still advances to the event's
        timestamp exactly as before — cancellation suppresses *effects*, not
        the clock — so cancelling a raced-and-lost timeout cannot perturb a
        simulation's timing. The callbacks are dropped at once, so whatever
        they refer to (a finished process, a combinator) need not outlive
        the cancel until the pop. Cancelling an already-processed event is a
        no-op.
        """
        self._cancelled = True
        if self.callbacks:
            self.callbacks = []

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        if callbacks:
            for callback in callbacks:
                callback(self)

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; called immediately if already processed."""
        if self.callbacks is None:
            callback(self)
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that fires ``delay`` seconds after creation."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if not delay >= 0:  # Also rejects NaN, which would drop the event.
            raise ValueError(f"timeout delay must be >= 0, got {delay}")
        # The slots are set here rather than through Event.__init__: one
        # timeout per disk and NIC stage makes this a hot constructor.
        self.sim = sim
        self.callbacks = []
        self._value = value
        self._exception = None
        self._triggered = True
        self._processed = False
        self._cancelled = False
        self.delay = delay
        sim._schedule(self, delay)


class Process(Event):
    """A running generator coroutine; is itself an event that fires on return.

    The wrapped generator yields :class:`Event` instances. When the process
    generator returns, this event succeeds with the return value; if the
    generator raises, this event fails with that exception (re-raised in any
    process joining on it, or surfaced by :meth:`Simulator.run`).

    A process that returns while nobody waits on it (no callbacks) is
    marked processed in place: dispatching its end would run no callback,
    so it costs no event. A process that raises is always scheduled, so an
    unjoined failure still surfaces from :meth:`Simulator.run`.

    The ``qos`` slot is an optional ``(flow, weight)`` scheduling tag read
    by weighted-fair resources (see ``resources.WFQResource``). It is left
    unset unless a serving layer assigns it, so untagged processes pay no
    per-process cost.
    """

    __slots__ = ("generator", "name", "qos", "_target")

    def __init__(self, sim: "Simulator", generator: Generator, name: str | None = None):
        if type(generator) is not GeneratorType and not isinstance(generator, Generator):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        # Slots set directly, as in Timeout: one process per sub-request.
        self.sim = sim
        self.callbacks = []
        self._value = None
        self._exception = None
        self._triggered = False
        self._processed = False
        self._cancelled = False
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: The event the process waits on (see :meth:`_interrupted`).
        self._target: Event | None = None
        # Kick-start on the next tick at current time.
        bootstrap = Event(sim)
        bootstrap.callbacks.append(self._resume)
        bootstrap._triggered = True
        sim._schedule(bootstrap, 0.0)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> Event | None:
        """Throw :class:`Interrupt` into the process at the current time.

        Returns the scheduled wake-up event (None if the process already
        finished). Cancelling it before it is dispatched withdraws the
        interrupt: an interrupter that learns in the same instant that the
        process finished its work uses this so no stale Interrupt reaches
        the process's next ``yield``.
        """
        if self._triggered:
            return None  # Already finished; interrupting is a no-op.
        wakeup = Event(self.sim)
        wakeup._triggered = True
        wakeup._exception = Interrupt(cause)
        wakeup.callbacks.append(self._interrupted)
        self.sim._schedule(wakeup, 0.0)
        return wakeup

    def _interrupted(self, wakeup: Event) -> None:
        """Unhook from the awaited event, then throw the Interrupt in.

        A process that catches the Interrupt and keeps running must never
        be resumed by the event it was waiting on when interrupted (SimPy
        unhooks its ``_target`` the same way).
        """
        if self._triggered:
            return
        target = self._target
        if target is not None:
            callbacks = target.callbacks
            if callbacks:
                resume = self._resume
                if resume in callbacks:
                    callbacks.remove(resume)
        self._resume(wakeup)

    def _resume(self, trigger: Event) -> None:
        if self._triggered:
            return  # Finished in the meantime (e.g. interrupted then joined).
        sim = self.sim
        sim._active_process = self
        try:
            exception = trigger._exception
            if exception is not None:
                target = self.generator.throw(exception)
            else:
                target = self.generator.send(trigger._value)
        except StopIteration as stop:
            sim._active_process = None
            self._target = None
            if self.callbacks:
                self.succeed(stop.value)
            else:
                # Nobody waits: the end is processed here, not dispatched.
                self._triggered = True
                self._value = stop.value
                self._processed = True
                self.callbacks = None
            return
        except BaseException as exc:
            # An unhandled Interrupt (or any other exception) terminates the
            # process as a failure.
            sim._active_process = None
            self._target = None
            self.fail(exc)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {type(target).__name__}; processes must yield events"
            )
        if target.sim is not sim:
            raise SimulationError("cannot wait on an event from a different simulator")
        # Inlined target.add_callback(self._resume): this is the hottest
        # edge in the event loop (every yield of every process lands here).
        callbacks = target.callbacks
        if callbacks is None:
            self._resume(target)
        else:
            self._target = target
            callbacks.append(self._resume)


class AllOf(Event):
    """Fires when every child event has fired; value is the list of values.

    If any child fails, this event fails with the first failure.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        self._pending = len(self._events)
        if self._pending == 0:
            self.succeed([])
            return
        for event in self._events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([e._value for e in self._events])


class AnyOf(Event):
    """Fires when the first child event fires; value is ``(index, value)``."""

    __slots__ = ("_events",)

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        self._events = list(events)
        if not self._events:
            raise ValueError("AnyOf requires at least one event")
        on_child = self._on_child
        for event in self._events:
            event.add_callback(on_child)

    def _on_child(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exception is not None:
            self.fail(event._exception)
        else:
            # The first child to fire wins; if one event is listed twice,
            # its first position is the index reported.
            self.succeed((self._events.index(event), event._value))


class Simulator:
    """The discrete-event scheduler.

    Typical use::

        sim = Simulator()

        def worker():
            yield sim.timeout(1.5)
            return "done"

        proc = sim.process(worker())
        sim.run()
        assert sim.now == 1.5 and proc.value == "done"

    Events due later wait on a binary heap of ``(time, sequence, event)``;
    events due at the current time wait in a FIFO ready queue, which costs
    one deque append and pop instead of a heap push and pop. Dispatch order
    is the heap-only kernel's ``(time, sequence)`` order exactly (see
    :meth:`run`), so moving an event between the two changes no result.
    """

    __slots__ = (
        "_now",
        "_heap",
        "_ready",
        "_sequence",
        "_unqueued",
        "_fanout",
        "_active_process",
        "tracer",
    )

    def __init__(self):
        self._now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._ready: deque[Event] = deque()
        self._sequence = 0
        #: Sequence numbers reserved (:meth:`reserve_sequence`) but not yet
        #: queued; the dispatched-event count leaves them out.
        self._unqueued = 0
        #: True while the loop dispatches an event with several callbacks.
        self._fanout = False
        self._active_process: Process | None = None
        #: Optional observability hook (see :mod:`repro.obs`). When None —
        #: the default — every instrumented layer skips its recording with
        #: a single pointer comparison, so tracing costs nothing when off.
        #: Attach before :meth:`run`; the loop binds it once on entry.
        self.tracer: Any = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def active_process(self) -> Process | None:
        """The process currently executing, if any (for resource bookkeeping)."""
        return self._active_process

    def quiescent(self) -> bool:
        """True when nothing else is due at the current instant.

        The ready queue is empty and the event being dispatched has no
        other callbacks, so a zero-delay event scheduled now would be the
        next thing dispatched. A process may then do at once what that
        event would have resumed it to do: the order of every other event
        stays the same.
        """
        return not self._ready and not self._fanout

    def reserve_sequence(self) -> int:
        """Take the sequence number the next scheduled event would get.

        The caller later queues an event under it with
        :meth:`schedule_reserved`, or never: a number left unused only
        leaves a gap, which orders nothing differently.
        """
        sequence = self._sequence
        self._sequence = sequence + 1
        self._unqueued += 1
        return sequence

    def schedule_reserved(self, event: Event, time: float, sequence: int) -> None:
        """Queue a triggered ``event`` at absolute ``time`` under a
        ``sequence`` number taken earlier with :meth:`reserve_sequence`.

        It is dispatched where an event scheduled when the number was
        reserved, due at ``time``, would have been. ``time`` must be in the
        future, or now if no number was taken since ``sequence``.
        """
        if time == self._now and sequence == self._sequence - 1:
            self._ready.append(event)
        elif not time > self._now:
            raise SimulationError(
                f"cannot schedule sequence {sequence} at {time}: now is {self._now}"
            )
        else:
            _heappush(self._heap, (time, sequence, event))
        self._unqueued -= 1

    def _schedule(self, event: Event, delay: float) -> None:
        sequence = self._sequence
        self._sequence = sequence + 1
        now = self._now
        time = now + delay
        if time == now:
            self._ready.append(event)
        else:
            _heappush(self._heap, (time, sequence, event))

    def schedule_many(
        self,
        items: Iterable[tuple[Event, Any, float]],
        absolute: bool = False,
    ) -> None:
        """Trigger and schedule a batch of events in one call.

        ``items`` yields ``(event, value, when)`` triples: each pending
        event is triggered successfully with ``value`` and scheduled at
        ``now + when`` (or at the absolute timestamp ``when`` if
        ``absolute`` is true). This is the bulk form of
        :meth:`Event.succeed` — the batched executor pushes a whole
        completion wave with one call instead of one ``_schedule`` per
        event, and absolute timestamps avoid the ``now + (t - now)``
        round-trip that would perturb float-exact completion times.
        """
        heap = self._heap
        ready = self._ready
        sequence = self._sequence
        now = self._now
        staged: list[tuple[float, int, Event]] = []
        for event, value, when in items:
            if event._triggered:
                raise SimulationError("event already triggered")
            time = float(when) if absolute else now + when
            if not time >= now:
                raise SimulationError(
                    f"cannot schedule at {time}: in the past (now {now}) or NaN"
                )
            event._triggered = True
            event._value = value
            if time == now:
                ready.append(event)
            else:
                staged.append((time, sequence, event))
            sequence += 1
        self._sequence = sequence
        if len(staged) > 8:
            heap.extend(staged)
            heapq.heapify(heap)
        else:
            for entry in staged:
                _heappush(heap, entry)

    # -- factory helpers -------------------------------------------------

    def event(self) -> Event:
        """Create a pending event owned by this simulator."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator, name: str | None = None) -> Process:
        """Start a new process from ``generator``."""
        return Process(self, generator, name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Join on all ``events``."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Race ``events``; first one wins."""
        return AnyOf(self, events)

    # -- main loop --------------------------------------------------------

    def _advance(self) -> Event:
        """Move the clock to the heap's next time; returns its first event.

        Every other heap entry due at that same time moves to the (empty)
        ready queue, in sequence order, ahead of anything their callbacks
        schedule. Only :meth:`step` calls this; :meth:`run` inlines it.
        """
        heap = self._heap
        now, _, event = _heappop(heap)
        self._now = now
        while heap and heap[0][0] == now:
            self._ready.append(_heappop(heap)[2])
        return event

    def step(self) -> None:
        """Process a single event: the next one in ``(time, sequence)`` order.

        Raises :class:`SimulationError` when no event is pending.

        Failure-propagation contract (shared with :meth:`run`): an event
        that was *failed* — a process whose generator raised, or any plain
        event failed via :meth:`Event.fail` — re-raises its exception here
        if it reaches dispatch with **no callbacks registered**. A failure
        nobody joined would otherwise vanish silently, masking bugs in
        fire-and-forget processes (controllers, background tasks) and in
        ``fail()``-signalled conditions alike. :class:`Interrupt` failures
        are exempt: an interrupted-then-abandoned process is deliberate
        cancellation, not an error. Joined failures (at least one callback,
        e.g. a waiting process or an ``AllOf``/``AnyOf`` composite) are
        delivered to the waiters instead and never re-raise here.
        """
        if self._ready:
            event = self._ready.popleft()
        elif self._heap:
            event = self._advance()
        else:
            raise SimulationError("step() called with no events pending")
        if self.tracer is not None:
            self.tracer.events_dispatched += 1
        if event._cancelled:
            event.callbacks = None
            event._processed = True
            return
        had_waiters = bool(event.callbacks)
        self._fanout = had_waiters and len(event.callbacks) > 1
        try:
            event._run_callbacks()
        finally:
            self._fanout = False
        if (
            event._exception is not None
            and not had_waiters
            and not isinstance(event._exception, Interrupt)
        ):
            raise event._exception

    def run(self, until: float | Event | None = None) -> Any:
        """Run until no event is pending, ``until`` time passes, or event fires.

        Returns the event's value when ``until`` is an event. Exceptions
        from *unjoined* failures propagate out of ``run`` under the same
        contract as :meth:`step`, in **every** ``until`` mode: a failed
        event — a process whose generator raised *or* a plain event failed
        via :meth:`Event.fail` — re-raises at its dispatch time if no
        callbacks were registered on it, except :class:`Interrupt` failures
        (deliberate cancellation). Simulations never swallow failures
        silently; waiting on an event (directly, or through ``all_of`` /
        ``any_of``) takes ownership of its failure instead.

        Dispatch order. The ready queue is drained before the clock moves
        on, and the clock moves only by popping the heap. When it moves to
        time ``t``, every other heap entry due at ``t`` joins the (empty)
        ready queue in sequence order. Those entries were all scheduled
        before the clock reached ``t``, so their sequence numbers are below
        that of any event scheduled at ``t``. An event scheduled at ``t``
        and due at ``t`` is appended to the ready queue after them; one due
        later goes on the heap. The ready queue is therefore always in
        sequence order, and dispatch follows exactly the ``(time,
        sequence)`` order of a kernel that keeps every event on the heap.

        While it dispatches an event with several callbacks, the loop sets
        the flag that makes :meth:`quiescent` false: a later callback of
        the same event is still due.

        The loop bodies inline :meth:`step` (callback dispatch plus the
        unjoined-failure check) with everything bound to locals: this
        is the innermost loop of every experiment, executed once per
        simulated event, and the method-call + attribute-lookup overhead of
        delegating to ``step()`` costs ~25% of total simulation time.
        """
        heap = self._heap
        ready = self._ready
        pop = _heappop
        popleft = ready.popleft
        append = ready.append
        # Observability: rather than touching the tracer per event (which
        # would tax the hot loop even when idle), the dispatched-event count
        # is derived on exit — every queued event has a sequence number, so
        # pops == (new sequences, less those reserved and not yet queued)
        # + (shrinkage of heap and ready queue).
        tracer = self.tracer
        if tracer is not None:
            sequence_start = self._sequence - self._unqueued
            pending_start = len(heap) + len(ready)
        try:
            if isinstance(until, Event):
                stop_event = until
                while not stop_event._processed:
                    if ready:
                        event = popleft()
                    elif heap:
                        now, _, event = pop(heap)
                        self._now = now
                        while heap and heap[0][0] == now:
                            append(pop(heap)[2])
                    else:
                        raise SimulationError(
                            "simulation ran out of events before the awaited event fired (deadlock?)"
                        )
                    if event._cancelled:
                        event.callbacks = None
                        event._processed = True
                        continue
                    callbacks = event.callbacks
                    event.callbacks = None
                    event._processed = True
                    if callbacks:
                        if len(callbacks) == 1:
                            callbacks[0](event)
                        else:
                            self._fanout = True
                            for callback in callbacks:
                                callback(event)
                            self._fanout = False
                    elif (
                        event._exception is not None
                        and not isinstance(event._exception, Interrupt)
                    ):
                        raise event._exception
                return stop_event.value
            horizon = float("inf") if until is None else float(until)
            if self._now > horizon:
                # Nothing is due by ``until``: not even the ready queue.
                return None
            while True:
                if ready:
                    event = popleft()
                elif heap and heap[0][0] <= horizon:
                    now, _, event = pop(heap)
                    self._now = now
                    while heap and heap[0][0] == now:
                        append(pop(heap)[2])
                else:
                    break
                if event._cancelled:
                    event.callbacks = None
                    event._processed = True
                    continue
                callbacks = event.callbacks
                event.callbacks = None
                event._processed = True
                if callbacks:
                    if len(callbacks) == 1:
                        callbacks[0](event)
                    else:
                        self._fanout = True
                        for callback in callbacks:
                            callback(event)
                        self._fanout = False
                elif (
                    event._exception is not None
                    and not isinstance(event._exception, Interrupt)
                ):
                    raise event._exception
            if until is not None and self._now < horizon:
                self._now = horizon
            return None
        finally:
            self._fanout = False  # A callback raised out of a fan-out.
            if tracer is not None:
                tracer.events_dispatched += (
                    self._sequence - self._unqueued - sequence_start
                    + pending_start - len(heap) - len(ready)
                )
