"""A small discrete-event simulation (DES) kernel.

This is the substrate under the simulated hybrid parallel file system: file
servers, network links, and MPI ranks are all coroutine processes scheduled
by :class:`Simulator`. The design follows the classic generator-coroutine
pattern (cf. SimPy): a process is a generator that ``yield``s events
(timeouts, resource grants, joins) and is resumed when they fire.

The kernel is intentionally minimal — an event heap with a FIFO ready
queue for zero-delay events, processes, FIFO resources with utilization
accounting — because that is all the paper's experiments need, and it
keeps the hot path (millions of sub-request events) cheap in pure Python.
"""

from repro.simulate.engine import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simulate.resources import Resource, Store, UtilizationMonitor

__all__ = [
    "AllOf",
    "AnyOf",
    "Event",
    "Interrupt",
    "Process",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
    "UtilizationMonitor",
]
