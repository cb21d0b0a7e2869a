"""Parallel run orchestrator: fan independent simulations across cores.

The paper's methodology is embarrassingly parallel — every figure
aggregates N perturbed-seed replicas per (config, workload) point, and
the Section 6.1 campaign runs hundreds of independent fault-injection
trials.  :func:`run_points` executes such independent points on a
*persistent* pool of warm worker processes:

* A point is described by a picklable, plain-data spec
  (:class:`RunSpec` by default).  The worker builds the ``System`` in
  the child process and returns plain-data :class:`RunMetrics` — a
  live ``System`` never crosses the process boundary.
* The pool is created once and reused across ``run_points`` calls
  (workers stay warm; an initializer pre-imports the simulation stack
  so no spec pays import cost), and specs are *streamed* to it in
  order, so parallel output is bit-identical to the serial path for
  any deterministic worker.
* ``jobs=1`` runs in-process (no pool, no pickling); ``jobs=0`` means
  "auto" (``cpu_count() - 1``, at least 1).  ``jobs=None`` defers to
  the ``REPRO_JOBS`` environment variable, then to ``default_jobs``.
* A crashed worker process surfaces as :class:`ParallelRunError`
  naming the failed spec, rather than a hang or a bare pool error.

Used by :func:`repro.system.experiments.measure` (seed replicas),
``benchmarks/bench_common.measure_grid`` (config × workload grids) and
:func:`repro.faults.campaign.run_campaign` (injection trials).
"""

from __future__ import annotations

import atexit
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

from repro.common.errors import ConfigError
from repro.config import SystemConfig

#: Environment variable consulted when ``jobs`` is not given.
JOBS_ENV = "REPRO_JOBS"

SpecT = TypeVar("SpecT")
ResultT = TypeVar("ResultT")


@dataclass(frozen=True)
class RunSpec:
    """One independent simulation run (picklable plain data)."""

    config: SystemConfig
    workload: str
    ops: int
    max_cycles: int = 50_000_000


@dataclass(frozen=True)
class RunMetrics:
    """Plain-data outcome of one run (everything the harnesses read).

    Carries the scheduler/stat counters rather than the live ``System``
    so it can return from a worker process.
    """

    cycles: int
    completed: bool
    violations: int
    events_processed: int
    counters: Dict[str, int] = field(default_factory=dict)

    def counter_max(self, prefix: str) -> int:
        """Largest counter under ``prefix`` (StatsRegistry.max_over analogue)."""
        return max(
            (v for k, v in self.counters.items() if k.startswith(prefix)),
            default=0,
        )


class ParallelRunError(RuntimeError):
    """A worker failed (exception or process death) on one spec."""

    def __init__(self, index: int, spec, reason: str):
        super().__init__(
            f"parallel run failed on spec #{index} ({spec!r}): {reason}"
        )
        self.index = index
        self.spec = spec
        self.reason = reason


def execute_run_spec(spec: RunSpec) -> RunMetrics:
    """Default worker: build the system in this process, run, summarise.

    Top-level (hence picklable by reference) so it can be shipped to
    pool workers.
    """
    from repro.system.builder import build_system

    system = build_system(spec.config, workload=spec.workload, ops=spec.ops)
    result = system.run(max_cycles=spec.max_cycles)
    return RunMetrics(
        cycles=result.cycles,
        completed=result.completed,
        violations=len(result.violations),
        events_processed=system.scheduler.events_processed,
        counters=system.stats.counters(),
    )


def resolve_jobs(jobs: Optional[int] = None, default: int = 1) -> int:
    """Normalise a ``jobs`` request to a concrete worker count.

    ``None`` reads ``REPRO_JOBS`` (falling back to ``default``); ``0``
    means auto (``cpu_count() - 1``, at least 1).
    """
    if jobs is None:
        env = os.environ.get(JOBS_ENV)
        if env is not None and env.strip():
            try:
                jobs = int(env)
            except ValueError:
                raise ConfigError(
                    f"{JOBS_ENV} must be an integer, got {env!r}"
                ) from None
        else:
            jobs = default
    if jobs == 0:
        jobs = max(1, (os.cpu_count() or 1) - 1)
    if jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    return jobs


# ---------------------------------------------------------------------------
# Persistent worker pool
# ---------------------------------------------------------------------------

#: The shared ``ProcessPoolExecutor`` (``None`` until one is needed).
_pool = None
_pool_jobs = 0


def _warm_worker() -> None:
    """Pool initializer: pre-import the simulation stack.

    Runs once per worker process at pool creation, so every streamed
    spec finds the builder (and everything it pulls in) already
    imported instead of paying the import on its first task.
    """
    import repro.system.builder  # noqa: F401


def _get_pool(jobs: int):
    """The shared worker pool, (re)created only when ``jobs`` changes."""
    global _pool, _pool_jobs
    # Imported here: only a pool needs multiprocessing and what it loads.
    from concurrent.futures import ProcessPoolExecutor

    if _pool is not None and _pool_jobs != jobs:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None
    if _pool is None:
        _pool = ProcessPoolExecutor(max_workers=jobs, initializer=_warm_worker)
        _pool_jobs = jobs
    return _pool


def discard_pool() -> None:
    """Tear down the persistent pool (crashed worker, interpreter exit)."""
    global _pool
    if _pool is not None:
        _pool.shutdown(wait=False, cancel_futures=True)
        _pool = None


atexit.register(discard_pool)


def _indexed_call(item: Tuple[int, Callable, object]):
    """Shippable wrapper: run one spec, return (index, error, result).

    Worker exceptions come back as values instead of poisoning the
    pool, so one bad spec aborts the batch without costing the warm
    workers.
    """
    index, worker, spec = item
    try:
        return index, None, worker(spec)
    except BaseException as exc:  # noqa: BLE001 - reported to the caller
        return index, str(exc) or type(exc).__name__, None


# ---------------------------------------------------------------------------
# Orchestration
# ---------------------------------------------------------------------------


def run_points(
    specs: Sequence[SpecT],
    jobs: Optional[int] = None,
    worker: Callable[[SpecT], ResultT] = execute_run_spec,
) -> List[ResultT]:
    """Run ``worker`` over every spec, preserving spec order.

    With ``jobs <= 1`` (or a single spec) the specs run serially in
    this process — the exact code path the pool workers execute — so
    parallel and serial results are identical for deterministic
    workers.  Worker exceptions and worker-process deaths both raise
    :class:`ParallelRunError` identifying the offending spec.
    """
    specs = list(specs)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(specs) <= 1:
        return [worker(spec) for spec in specs]

    from concurrent.futures.process import BrokenProcessPool

    results: List[Optional[ResultT]] = [None] * len(specs)
    pool = _get_pool(jobs)
    items = [(i, worker, spec) for i, spec in enumerate(specs)]
    done = 0
    try:
        # Streamed in order: workers pull specs as they free up, the
        # parent consumes (index, error, result) records as they
        # complete, and a failure aborts the batch promptly without
        # tearing down the warm pool.
        for index, error, value in pool.map(_indexed_call, items):
            if error is not None:
                raise ParallelRunError(index, specs[index], error)
            results[index] = value
            done += 1
    except BrokenProcessPool as exc:
        discard_pool()
        index = min(done, len(specs) - 1)
        raise ParallelRunError(
            index, specs[index], "worker process died"
        ) from exc
    return results  # type: ignore[return-value]
