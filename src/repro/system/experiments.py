"""Experiment harness used by the benchmarks.

Runs (config, workload) points with perturbed seeds, exactly like the
paper's methodology ("we run each simulation ten times with small
pseudo-random perturbations ... mean result values as well as error
bars that correspond to one standard deviation"), and extracts the
metrics each figure plots.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.stats import mean_stddev
from repro.config import SystemConfig
from repro.parallel import RunMetrics, RunSpec, run_points

from .builder import RunResult, System, build_system

#: Seeds per data point (the paper uses 10; 3 keeps benches fast while
#: still producing error bars — raise via ``seeds=`` for paper fidelity).
DEFAULT_SEEDS = 3


@dataclass
class Measurement:
    """One configuration's aggregated metrics across seeds."""

    runtime_mean: float
    runtime_std: float
    max_link_bytes_per_cycle: float
    replay_misses: int
    replay_accesses: int
    l1_misses: int
    l1_accesses: int
    violations: int

    @property
    def replay_miss_ratio(self) -> float:
        """Replay misses normalised to regular misses (Figure 6)."""
        if self.l1_misses == 0:
            return 0.0
        return self.replay_misses / self.l1_misses


def run_once(
    config: SystemConfig,
    workload: str,
    ops: int,
    max_cycles: int = 50_000_000,
) -> Tuple[System, RunResult]:
    """Build and run one system to completion."""
    system = build_system(config, workload=workload, ops=ops)
    result = system.run(max_cycles=max_cycles)
    return system, result


def replica_specs(
    config: SystemConfig, workload: str, ops: int, seeds: int
) -> List[RunSpec]:
    """The perturbed-seed replicas behind one data point."""
    return [
        RunSpec(config.with_seed(seed), workload, ops)
        for seed in range(1, seeds + 1)
    ]


def aggregate_metrics(
    config: SystemConfig, metrics: Sequence[RunMetrics]
) -> Measurement:
    """Fold per-replica :class:`RunMetrics` into one :class:`Measurement`.

    Pure data-plane aggregation — identical whether the metrics came
    from in-process runs or pool workers.
    """
    runtimes: List[float] = []
    max_link = 0.0
    replay_misses = replay_accesses = 0
    l1_misses = l1_accesses = 0
    violations = 0
    for m in metrics:
        runtimes.append(m.cycles)
        if m.cycles:
            max_link = max(max_link, m.counter_max("net.") / m.cycles)
        counters = m.counters
        for n in range(config.num_nodes):
            replay_misses += counters.get(f"l1.{n}.replay_misses", 0)
            replay_accesses += counters.get(f"l1.{n}.replay_accesses", 0)
            l1_misses += counters.get(f"l1.{n}.misses", 0)
            l1_accesses += counters.get(f"l1.{n}.accesses", 0)
        violations += m.violations
    mean, std = mean_stddev(runtimes)
    return Measurement(
        runtime_mean=mean,
        runtime_std=std,
        max_link_bytes_per_cycle=max_link,
        replay_misses=replay_misses,
        replay_accesses=replay_accesses,
        l1_misses=l1_misses,
        l1_accesses=l1_accesses,
        violations=violations,
    )


def measure(
    config: SystemConfig,
    workload: str,
    ops: int = 300,
    seeds: int = DEFAULT_SEEDS,
    jobs: Optional[int] = None,
) -> Measurement:
    """Run ``seeds`` perturbed replicas and aggregate the metrics.

    ``jobs`` fans the replicas across worker processes (see
    :func:`repro.parallel.run_points`); results are aggregated in seed
    order, so every field is identical to a serial run.
    """
    metrics = run_points(replica_specs(config, workload, ops, seeds), jobs=jobs)
    return aggregate_metrics(config, metrics)


def normalized_runtimes(
    measurements: Dict[str, Measurement], baseline_key: str
) -> Dict[str, Tuple[float, float]]:
    """Normalise runtimes to a baseline (the paper normalises to
    unprotected SC).  Returns ``key -> (mean_ratio, std_ratio)``."""
    base = measurements[baseline_key].runtime_mean
    if base == 0:
        raise ValueError("baseline runtime is zero")
    return {
        key: (m.runtime_mean / base, m.runtime_std / base)
        for key, m in measurements.items()
    }


def format_series(
    title: str,
    rows: Dict[str, Dict[str, Tuple[float, float]]],
    columns: List[str],
) -> str:
    """Render a figure's data as the paper-style table of bars.

    ``rows`` maps workload -> {column -> (mean, std)}.
    """
    width = max(10, max(len(c) for c in columns) + 8)
    out = [title, "workload".ljust(10) + "".join(c.ljust(width) for c in columns)]
    for workload, cells in rows.items():
        line = workload.ljust(10)
        for column in columns:
            mean, std = cells.get(column, (float("nan"), 0.0))
            line += f"{mean:6.3f} ±{std:5.3f}".ljust(width)
        out.append(line)
    return "\n".join(out)
