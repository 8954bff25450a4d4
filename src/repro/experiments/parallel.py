"""Process-pool fan-out for independent simulation runs.

Every figure and sweep in the experiment suite is a collection of fully
independent ``run_workload`` / ``harl_plan`` executions: each builds its own
:class:`~repro.simulate.engine.Simulator` and PFS from a picklable
:class:`~repro.experiments.harness.Testbed`, so nothing is shared between
points. This module fans such collections across a ``ProcessPoolExecutor``
while keeping results *byte-identical* to serial execution:

- Jobs are declarative, picklable specs (:class:`RunJob`, :class:`PlanJob`);
  the heavy objects (simulator, devices, servers) are constructed inside the
  worker, never shipped across the pipe.
- Every stochastic stream is derived from the job's own seed via
  :func:`repro.util.rng.derive_rng` — no module-level RNG state exists to
  leak into forked workers (``tests/test_determinism.py`` audits this).
- Results come back in submission order (``ProcessPoolExecutor.map``), so
  tables and reports assemble identically regardless of completion order.
- Workers set a process-local flag making :func:`resolve_jobs` return 1,
  so a parallelized callee (e.g. calibration inside a figure job) never
  spawns a nested pool.

Parallelism is opt-in: ``jobs=None`` falls back to the ``REPRO_JOBS``
environment variable, and absent both, everything runs serially in-process.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields
from typing import Any, Callable, Iterable, Sequence, TypeVar

_T = TypeVar("_T")
_R = TypeVar("_R")

#: Set in pool workers by the initializer; guards against nested pools.
_in_worker = False


def _worker_init() -> None:
    global _in_worker
    _in_worker = True


def in_worker() -> bool:
    """True inside a pool worker process (nested pools are suppressed)."""
    return _in_worker


def resolve_jobs(jobs: int | None = None) -> int:
    """Resolve a job-count request to an effective worker count.

    Resolution order: inside a pool worker → always 1 (no nested pools);
    explicit ``jobs`` argument; the ``REPRO_JOBS`` environment variable;
    otherwise 1 (serial). A value <= 0 means "all cores" (``os.cpu_count``).
    """
    if _in_worker:
        return 1
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        if not env:
            return 1
        try:
            jobs = int(env)
        except ValueError as exc:
            raise ValueError(f"REPRO_JOBS must be an integer, got {env!r}") from exc
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


def pmap(
    fn: Callable[[_T], _R],
    items: Iterable[_T],
    jobs: int | None = None,
    chunksize: int = 1,
) -> list[_R]:
    """Ordered map of ``fn`` over ``items``, optionally across processes.

    With an effective job count of 1 (or <= 1 item) this is exactly
    ``[fn(x) for x in items]`` — same process, same call order. Otherwise
    items are distributed over a process pool and results are returned in
    input order. ``fn`` and the items must be picklable module-level
    callables/values.
    """
    items = list(items)
    n = min(resolve_jobs(jobs), len(items))
    if n <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    try:
        # Fork keeps worker startup cheap and inherits the warmed caches of
        # the parent (calibration, stripe LRU) read-only.
        context = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        context = None
    with ProcessPoolExecutor(
        max_workers=n, initializer=_worker_init, mp_context=context
    ) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Declarative job specs
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunJob:
    """One ``run_workload`` execution: (testbed, workload, layout).

    ``trace`` mirrors ``run_workload``'s parameter: True forces a DES
    event trace in the worker (the resulting ``RunResult.obs`` snapshot is
    picklable and rides back for :func:`repro.obs.merge_snapshots`); None
    defers to the inherited ``REPRO_TRACE`` environment switch.
    """

    testbed: Any
    workload: Any
    layout: Any
    layout_name: str | None = None
    file_name: str = "shared.dat"
    trace: bool | None = None
    #: Optional FaultSchedule / RetryPolicy (both picklable and
    #: seed-deterministic, so parallel fault runs replay identically).
    faults: Any = None
    retry: Any = None
    #: Optional :class:`repro.online.rebuild.RebuildConfig` (or True for
    #: the defaults) and quorum-ack threshold; both frozen/picklable, and
    #: rebuild work is RNG-free, so pooled rebuild runs replay identically.
    rebuild: Any = None
    write_quorum: int | None = None
    #: ``batched=True`` runs the workload as one columnar batch via
    #: :func:`repro.experiments.harness.run_workload_batched` (the workload
    #: must expose ``request_batch()`` or be a RequestBatch itself);
    #: ``force_general`` additionally pins the per-request general path.
    batched: bool = False
    force_general: bool = False


@dataclass(frozen=True)
class ServeJob:
    """One ``run_serving`` execution: (testbed, serving scenario).

    The scenario is a frozen :class:`repro.serving.ServingScenario`; every
    stochastic stream inside the run derives from its seed, so a ServeJob
    produces bit-identical per-tenant histograms serial or pooled.
    """

    testbed: Any
    scenario: Any
    trace: bool | None = None
    faults: Any = None
    retry: Any = None


@dataclass(frozen=True)
class PlanJob:
    """One ``harl_plan`` execution: trace + calibrate + Algorithms 1-2."""

    testbed: Any
    workload: Any
    step: int | None = None
    max_requests_per_region: int = 256


def _job_kwargs(job: RunJob | PlanJob | ServeJob) -> dict:
    """A job spec's fields as keyword arguments of its harness entry point."""
    return {spec.name: getattr(job, spec.name) for spec in fields(job)}


def execute_run_job(job: RunJob) -> Any:
    """Run one :class:`RunJob` (module-level, hence pool-picklable)."""
    from repro.experiments.harness import run_workload, run_workload_batched

    kwargs = _job_kwargs(job)
    if not kwargs.pop("batched"):
        del kwargs["force_general"]  # the per-request runner has no tiers
    return (run_workload_batched if job.batched else run_workload)(**kwargs)


def execute_serve_job(job: ServeJob) -> Any:
    """Run one :class:`ServeJob` (module-level, hence pool-picklable)."""
    from repro.experiments.harness import run_serving

    return run_serving(**_job_kwargs(job))


def execute_plan_job(job: PlanJob) -> Any:
    """Run one :class:`PlanJob` (module-level, hence pool-picklable)."""
    from repro.experiments.harness import harl_plan

    return harl_plan(**_job_kwargs(job))


def execute_job(job: RunJob | PlanJob | ServeJob) -> Any:
    """Dispatch one job spec to its executor."""
    if isinstance(job, RunJob):
        return execute_run_job(job)
    if isinstance(job, PlanJob):
        return execute_plan_job(job)
    if isinstance(job, ServeJob):
        return execute_serve_job(job)
    raise TypeError(f"not a job spec: {type(job).__name__}")


def run_jobs(
    job_list: Sequence[RunJob | PlanJob | ServeJob], jobs: int | None = None
) -> list[Any]:
    """Execute a mixed batch of job specs; results align with ``job_list``."""
    return pmap(execute_job, job_list, jobs=jobs)
