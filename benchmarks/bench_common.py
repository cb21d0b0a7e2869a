"""Shared helpers for the paper-figure benchmarks.

Every benchmark regenerates one table or figure from the paper's
evaluation (Section 6), printing the series and writing it to
``benchmarks/results/<name>.txt``.  Absolute numbers come from the
scaled pure-Python simulator, so the claims under test are the paper's
*shapes* (who wins, rough factors, crossovers), recorded side by side
with the paper's statements in EXPERIMENTS.md.

Benchmarks run each experiment exactly once (``pedantic`` with one
round): the experiment functions are themselves statistical aggregates
over perturbed seeds, mirroring the paper's ten-run methodology.
"""

from __future__ import annotations

import os
from typing import Dict, List, Optional

from repro.config import SystemConfig
from repro.parallel import run_points
from repro.system.experiments import (
    Measurement,
    aggregate_metrics,
    replica_specs,
)

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

#: Benchmark-suite scale knobs.  The paper's runs are minutes of
#: simulated time; ours are scaled so that the full benchmark suite
#: finishes in minutes of wall-clock time.
WORKLOADS = ("apache", "oltp", "jbb", "slash", "barnes")
OPS = 80
SEEDS = 2
NODES = 8


def emit(name: str, text: str) -> str:
    """Print a result table and persist it under benchmarks/results."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print(f"\n{text}\n[written to {path}]")
    return text


def measure_grid(
    configs: Dict[str, SystemConfig],
    workloads=WORKLOADS,
    ops: int = OPS,
    seeds: int = SEEDS,
    jobs: Optional[int] = None,
) -> Dict[str, Dict[str, Measurement]]:
    """workload -> config-label -> Measurement.

    The whole config × workload × seed grid is one flat batch of
    independent runs, fanned across cores by
    :func:`repro.parallel.run_points` (``jobs=None`` honours the
    ``REPRO_JOBS`` environment variable).  Replicas are re-grouped in
    submission order, so the grid is identical to the serial one.
    """
    points = [(w, label) for w in workloads for label in configs]
    specs = []
    for workload, label in points:
        specs.extend(replica_specs(configs[label], workload, ops, seeds))
    metrics = run_points(specs, jobs=jobs)
    out: Dict[str, Dict[str, Measurement]] = {}
    for i, (workload, label) in enumerate(points):
        chunk = metrics[i * seeds : (i + 1) * seeds]
        out.setdefault(workload, {})[label] = aggregate_metrics(
            configs[label], chunk
        )
    return out


def runtime_table(
    title: str,
    grid: Dict[str, Dict[str, Measurement]],
    baseline_label: str,
    columns: List[str],
) -> str:
    """Render runtimes normalised per-workload to ``baseline_label``
    (the paper normalises each workload to the unprotected SC system)."""
    width = max(12, max(len(c) for c in columns) + 9)
    lines = [title, "workload".ljust(10) + "".join(c.ljust(width) for c in columns)]
    for workload, cells in grid.items():
        base = cells[baseline_label].runtime_mean
        line = workload.ljust(10)
        for column in columns:
            m = cells[column]
            line += (
                f"{m.runtime_mean / base:6.3f} ±{m.runtime_std / base:5.3f}"
            ).ljust(width)
        lines.append(line)
    return "\n".join(lines)
