"""Property: the DES's elided events change no result.

Three kinds of event are skipped when they change nothing (DESIGN §7):

- a lone sub-request runs in the requesting process, with no bootstrap or
  end event of its own, when :meth:`Simulator.quiescent` says that nothing
  else is due at the current instant;
- a metadata lookup takes a free service slot with no grant event under
  the same rule;
- retry-attempt timers share one watchdog per (filesystem, timeout) instead
  of scheduling one ``Timeout`` each.

The reference run turns every elision off: ``Simulator.quiescent`` returns
False (every sub-request is spawned as a process and every metadata grant
is an event), and each attempt timer is a plain ``Timeout`` that is lazily
cancelled when the attempt ends. Hypothesis mixes closed-loop MPI ranks
released by one shared event (a dispatch with several callbacks) and
separated by barriers, open requests, zero-cost, costed and cached
metadata with one or eight service slots, one- or four-flow NICs,
replicas with a write quorum, retry timeouts under hangs and crashes,
corrupted units, weighted-fair disks with ``qos`` tags and hedged reads.
Both runs must agree bit for bit on the makespan, the busy and NIC times,
the device RNG states, the fault counters and every request's latency or
typed failure, and the elided run must dispatch no more events.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.devices.base import OpType
from repro.faults import RetryPolicy, parse_faults
from repro.faults.injector import FaultInjector
from repro.middleware.mpi_sim import Communicator
from repro.obs.tracer import EventTracer
from repro.pfs import filesystem
from repro.pfs.filesystem import HybridPFS
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError
from repro.pfs.layout import FixedLayout
from repro.pfs.mds_cluster import MetadataCluster
from repro.serving.hedging import HedgeScheduler
from repro.simulate.engine import Simulator
from repro.util.units import KiB


class _TimeoutTimer:
    """The reference attempt timer: one lazily cancelled ``Timeout`` each."""

    def __init__(self, pfs, retry_timeout: float, server: str):
        sim = pfs.sim
        self.proc = sim.active_process
        self.server = server
        self.timeout = retry_timeout
        self.wakeup = None
        self.expired = None
        self.event = sim.timeout(retry_timeout)
        self.event.callbacks.append(self._fire)

    def _fire(self, _event) -> None:
        self.expired = ServerUnavailable(
            f"{self.server}: no response within {self.timeout:g}s", server=self.server
        )
        self.wakeup = self.proc.interrupt(self.expired)

    def disarm(self) -> None:
        self.event.cancel()
        if self.wakeup is not None:
            self.wakeup.cancel()


@st.composite
def scenarios(draw):
    n_h = draw(st.integers(min_value=1, max_value=3))
    n_s = draw(st.integers(min_value=1, max_value=2))
    names = [f"hserver{i}" for i in range(n_h)] + [f"sserver{j}" for j in range(n_s)]
    faults = []
    for kind in draw(st.lists(st.sampled_from(("hang", "crash", "corrupt")), max_size=2,
                              unique=True)):
        name = draw(st.sampled_from(names))
        at = draw(st.sampled_from((0.0, 0.0005, 0.002, 0.004)))
        if kind == "hang":
            faults.append(f"hang:{name}@{at}+{draw(st.sampled_from((0.003, 0.02)))}")
        elif kind == "crash":
            faults.append(f"crash:{name}@{at}")
            if draw(st.booleans()):
                faults.append(f"restore:{name}@{at + 0.006}")
        else:
            faults.append(f"corrupt:{name}@{at}%0.5")
    replicas = draw(st.sampled_from((1, 2)))
    return {
        "n_h": n_h,
        "n_s": n_s,
        "seed": draw(st.integers(min_value=0, max_value=3)),
        "mds": draw(st.sampled_from(("zero", "costed", "cached"))),
        "shards": draw(st.integers(min_value=1, max_value=2)),
        "mds_slots": draw(st.sampled_from((1, 8))),
        "nic": draw(st.sampled_from((1, 4))),
        "replicas": replicas,
        "quorum": draw(st.sampled_from((None, 1))) if replicas > 1 else None,
        "timeout": draw(st.sampled_from((None, 0.001, 0.004, 0.02))),
        "faults": ";".join(faults),
        "scheduler": draw(st.sampled_from(("fifo", "wfq"))),
        "qos": draw(st.booleans()),
        "hedge": replicas > 1 and draw(st.booleans()),
        "ranks": draw(st.integers(min_value=1, max_value=4)),
        "per_rank": draw(st.integers(min_value=1, max_value=3)),
        "request_size": draw(st.sampled_from((4 * KiB, 16 * KiB, 48 * KiB, 96 * KiB))),
        "stripe": draw(st.sampled_from((16 * KiB, 64 * KiB))),
        "open_requests": draw(st.integers(min_value=0, max_value=3)),
    }


def _simulate(spec: dict) -> dict:
    """Run one scenario; every outcome as exact, comparable values."""
    sim = Simulator()
    sim.tracer = EventTracer()
    costs = {"lookup_latency": 0.0, "per_region_latency": 0.0} if spec["mds"] == "zero" else {}
    mds = MetadataCluster(spec["shards"], parallelism=spec["mds_slots"], **costs)
    pfs = HybridPFS.build(
        sim, spec["n_h"], spec["n_s"], seed=spec["seed"], nic_parallelism=spec["nic"],
        disk_scheduler=spec["scheduler"], mds=mds, mds_cache=spec["mds"] == "cached",
    )
    layout = FixedLayout(spec["n_h"], spec["n_s"], spec["stripe"], replicas=spec["replicas"])
    handle = pfs.create_file("f.dat", layout)
    pfs.write_quorum = spec["quorum"]
    if spec["timeout"] is not None:
        pfs.retry = RetryPolicy(timeout=spec["timeout"], max_attempts=3, seed=spec["seed"])
    if spec["qos"]:
        handle.qos = ("tenant", 2.0)
    if spec["hedge"]:
        handle.hedge = HedgeScheduler(pfs, base_delay=0.001)
    if spec["faults"]:
        FaultInjector(sim, pfs, parse_faults(spec["faults"]), seed=spec["seed"]).install()

    outcomes: dict[str, str] = {}
    size = spec["request_size"]
    per_rank = spec["per_rank"]
    comm = Communicator(sim, spec["ranks"])
    gate = sim.timeout(1e-4)  # Releases every rank in one dispatch.

    def outcome(started, error=None):
        return type(error).__name__ if error is not None else (sim.now - started).hex()

    def rank(r):
        yield gate
        for phase, op in enumerate((OpType.WRITE, OpType.READ)):
            for i in range(per_rank):
                started = sim.now
                try:
                    yield from handle.serve_inline(op, (r * per_rank + i) * size, size)
                    outcomes[f"rank{r}.{phase}.{i}"] = outcome(started)
                except (ServerUnavailable, IntegrityError) as exc:
                    outcomes[f"rank{r}.{phase}.{i}"] = outcome(started, exc)
            yield comm.barrier_event()

    def opener(k):
        if k:
            yield sim.timeout(k * 3e-4)
        started = sim.now
        try:
            yield handle.request(OpType.READ if k % 2 else OpType.WRITE, k * size, size)
            outcomes[f"open{k}"] = outcome(started)
        except (ServerUnavailable, IntegrityError) as exc:
            outcomes[f"open{k}"] = outcome(started, exc)

    procs = [sim.process(rank(r)) for r in range(spec["ranks"])]
    procs += [sim.process(opener(k)) for k in range(spec["open_requests"])]
    sim.run(sim.all_of(procs))
    return {
        "makespan": sim.now.hex(),
        "busy": {name: busy.hex() for name, busy in pfs.server_busy_times().items()},
        "nic": [server.nic.monitor.snapshot().hex() for server in pfs.servers],
        "rng": [
            hashlib.sha256(
                json.dumps(server.device.rng.bit_generator.state, sort_keys=True).encode()
            ).hexdigest()
            for server in pfs.servers
        ],
        "outcomes": outcomes,
        "faults": pfs.health.counters(),
        "events": sim.tracer.events_dispatched,
    }


def _reference(spec: dict) -> dict:
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Simulator, "quiescent", lambda self: False)
        patch.setattr(filesystem, "_AttemptTimer", _TimeoutTimer)
        return _simulate(spec)


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=scenarios())
def test_elided_events_change_no_result(spec):
    elided = _simulate(spec)
    reference = _reference(spec)
    assert elided["events"] <= reference.pop("events")
    elided.pop("events")
    assert elided == reference


def test_reference_turns_the_elisions_off():
    """The oracle really differs: a plain scenario saves events."""
    spec = {
        "n_h": 2, "n_s": 1, "seed": 0, "mds": "costed", "shards": 1, "mds_slots": 8,
        "nic": 4, "replicas": 1,
        "quorum": None, "timeout": 0.02, "faults": "", "scheduler": "fifo", "qos": False,
        "hedge": False, "ranks": 2, "per_rank": 3, "request_size": 16 * KiB,
        "stripe": 64 * KiB, "open_requests": 1,
    }
    elided = _simulate(spec)
    reference = _reference(spec)
    assert elided["events"] < reference.pop("events")
    elided.pop("events")
    assert elided == reference
