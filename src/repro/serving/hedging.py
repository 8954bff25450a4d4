"""Straggler-aware replica selection and hedged reads.

Heterogeneous servers straggle: one degraded HDD can hold a read's tail
latency hostage while an idle replica sits on the SSD class. Following the
client-side sub-request scheduling of Tavakoli et al. (arXiv:1805.06156),
a :class:`HedgeScheduler` attacks the tail twice on the replicated read
path:

1. **Reorder**: each sub-request is sent first to the replica copy on the
   server with the lowest observed mean read latency (dead servers sort
   last), using per-server health flags (:mod:`repro.pfs.health`) and the
   latency histograms the scheduler maintains in the obs metrics registry.
2. **Hedge**: a timer races the primary serve, set at a high quantile
   (default p95) of the chosen server's latency distribution — the
   interpolated :meth:`Histogram.quantile`. If the primary finishes first
   the timer is *cancelled* via ``Event.cancel()`` (a lazy heap discard, no
   dead callback sweep); if it fires, the read is hedged on the next-best
   copy, and whichever serve loses the race is interrupted so its queue
   slots free immediately. Both attempts run their serve inside their own
   process (a retry policy's serve included), so the interrupt stops the
   losing copy's work, not just the wait for it.

The scheduler composes with integrity: a hedged read that hits a checksum
mismatch falls through the remaining copies and self-heals poisoned ones
from the first clean payload, with the same eager accounting as
``PFSFile._serve_repairing`` — the ``silent_corruptions`` identity holds
on every path. Everything the scheduler consults (health flags, histogram
state) is simulation state, so hedged runs stay seed-deterministic.
"""

from __future__ import annotations

from repro.devices.base import OpType
from repro.obs.metrics import TAIL_LATENCY_BOUNDS, Histogram, MetricsRegistry
from repro.pfs.health import ServerUnavailable
from repro.pfs.integrity import IntegrityError


class HedgeScheduler:
    """Per-filesystem hedged-read dispatcher (see module docstring).

    Attach by pointing a file handle's ``hedge`` attribute at an instance;
    the handle's replicated reads are then routed through
    :meth:`serve_read` instead of the plain repairing read. One scheduler
    can serve many handles; tiers with different hedge quantiles use
    separate schedulers sharing one registry (and thus one latency model).
    """

    def __init__(
        self,
        pfs,
        registry: MetricsRegistry | None = None,
        quantile: float = 0.95,
        min_samples: int = 16,
        base_delay: float = 0.02,
        select: bool = True,
        hedge: bool = True,
    ):
        self.pfs = pfs
        self.registry = registry if registry is not None else MetricsRegistry()
        self.quantile = quantile
        #: Observations required before a server's histogram drives
        #: selection/delay decisions; below it, ``base_delay`` applies.
        self.min_samples = min_samples
        self.base_delay = base_delay
        self.select = select
        self.hedge = hedge
        self.hedges_launched = 0
        self.hedges_won = 0
        self.timers_cancelled = 0
        self.reordered_reads = 0
        self._hists: dict[str, Histogram] = {}

    # -- latency model -----------------------------------------------------

    def _hist(self, server_name: str) -> Histogram:
        hist = self._hists.get(server_name)
        if hist is None:
            hist = self.registry.histogram(
                f"serving.server.{server_name}.read_latency_s", TAIL_LATENCY_BOUNDS
            )
            self._hists[server_name] = hist
        return hist

    def estimate(self, server_id: int) -> float:
        """Expected read latency on a server; 0 until its model warms up."""
        hist = self._hist(self.pfs.servers[server_id].name)
        return hist.mean if hist.count >= self.min_samples else 0.0

    def hedge_delay(self, server_id: int) -> float:
        """How long to give the primary before hedging (its tail quantile)."""
        hist = self._hist(self.pfs.servers[server_id].name)
        if hist.count >= self.min_samples:
            return max(hist.quantile(self.quantile), 1e-6)
        return self.base_delay

    def counters(self) -> dict[str, int]:
        return {
            "serving.hedge.launched": self.hedges_launched,
            "serving.hedge.won": self.hedges_won,
            "serving.hedge.timers_cancelled": self.timers_cancelled,
            "serving.hedge.reordered_reads": self.reordered_reads,
        }

    # -- read path ---------------------------------------------------------

    def serve_read(self, handle, column, retry):
        """Serve one replicated read sub-request (generator).

        ``column`` is the sub-request's resolved
        :class:`~repro.pfs.placement.SubPlacement`, as for
        ``PFSFile._serve_repairing``; ``PFSFile._request_proc`` dispatches
        here when ``handle.hedge`` is set and the region is replicated.
        """
        pfs = self.pfs
        sim = pfs.sim
        alive = pfs.health.alive
        copies = column.copies
        size = column.size
        # Candidate copies: (server, physical offset, copy index).
        candidates = [(*pfs.placement.copy_at(column, copy), copy) for copy in range(copies)]
        if self.select:
            order = sorted(
                range(copies),
                key=lambda c: (not alive[candidates[c][0]], self.estimate(candidates[c][0]), c),
            )
        else:
            order = list(range(copies))
        if order[0] != 0:
            self.reordered_reads += 1

        winner = None  # candidate that returned clean bytes
        poisoned = []  # (candidate, IntegrityError) copies awaiting repair
        unavailable = None  # last ServerUnavailable, re-raised if all fail

        def note(candidate, outcome):
            nonlocal winner, unavailable
            if outcome is None:
                if winner is None:
                    winner = candidate
            elif isinstance(outcome, IntegrityError):
                poisoned.append((candidate, outcome))
            else:
                unavailable = outcome

        first = candidates[order[0]]
        tried = 1
        if self.hedge and copies > 1:
            primary = sim.process(
                self._attempt(handle, first, size, retry), name=f"hedge0<-{handle.name}"
            )
            if handle.qos is not None:
                primary.qos = handle.qos
            guard = sim.timeout(self.hedge_delay(first[0]))
            yield sim.any_of([primary, guard])
            if primary.triggered:
                # Primary beat the hedge timer: cancel it — the heap entry
                # is lazily discarded at pop (PR 4 Event.cancel semantics).
                guard.cancel()
                self.timers_cancelled += 1
                note(first, primary.value)
            else:
                second = candidates[order[1]]
                tried = 2
                hedged = sim.process(
                    self._attempt(handle, second, size, retry), name=f"hedge1<-{handle.name}"
                )
                if handle.qos is not None:
                    hedged.qos = handle.qos
                self.hedges_launched += 1
                yield sim.any_of([primary, hedged])
                if primary.triggered:
                    note(first, primary.value)
                if hedged.triggered:
                    note(second, hedged.value)
                # Only a failed attempt justifies waiting for the straggler;
                # with clean bytes in hand its work is redundant.
                if winner is None and not primary.triggered:
                    yield primary
                    note(first, primary.value)
                if winner is None and not hedged.triggered:
                    yield hedged
                    note(second, hedged.value)
                if winner is not None:
                    if winner is second:
                        self.hedges_won += 1
                    straggler = hedged if winner is first else primary
                    if straggler.is_alive:
                        straggler.interrupt("hedge-loser")
        else:
            note(first, (yield from self._attempt(handle, first, size, retry)))

        # Remaining copies, sequentially (mirrors the repairing-read
        # fallback: only reached when everything tried so far failed).
        while winner is None and tried < copies:
            candidate = candidates[order[tried]]
            tried += 1
            note(candidate, (yield from self._attempt(handle, candidate, size, retry)))

        if winner is None:
            if poisoned:
                raise poisoned[0][1]
            raise unavailable

        # Self-heal every poisoned copy from the clean payload. Each
        # detection was eagerly counted unrepairable in _attempt; a repair
        # write resolves it, keeping silent_corruptions = mismatches -
        # repaired - unrepairable at zero on every path.
        acct = pfs.integrity
        for (target, base, _copy), _error in poisoned:
            yield from pfs.servers[target].serve(OpType.WRITE, base, size)
            acct.unrepairable -= 1
            acct.repaired += 1

    def _attempt(self, handle, candidate, size: int, retry):
        """Read one copy; return None on success, the typed error otherwise.

        Run either as a spawned process (hedge races — the process value
        carries the outcome, so a failed attempt never *fails* the race
        event) or inline via ``yield from`` (sequential fallback). Only the
        primary copy gets the retry/failover policy, like the plain
        repairing read. Successful latencies feed the per-server model.
        """
        pfs = self.pfs
        target, base, copy = candidate
        server = pfs.servers[target]
        started = pfs.sim.now
        if copy:
            pfs.integrity.replica_reads += 1
        try:
            if retry is not None and copy == 0:
                yield from handle._serve_resilient(OpType.READ, target, base, size, retry)
            else:
                yield from server.serve(OpType.READ, base, size)
        except IntegrityError as exc:
            # Eager accounting: stands as unrepairable unless healed later.
            pfs.integrity.unrepairable += 1
            return exc
        except ServerUnavailable as exc:
            return exc
        self._hist(server.name).observe(pfs.sim.now - started)
        return None
