"""Subprocess side of the ledger: one measurement role per fresh process.

    python benchmarks/ledger/worker.py --role {setup,timed,traced} \\
        --workload NAME --seed N [--seconds T] [--smoke]

``run.py`` starts it with ``PYTHONPATH`` at the checkout's ``src`` and
reads the JSON object it prints as its last line.

* ``setup``: from ``import repro`` to the first machine built.
* ``timed``: one untimed warm-up sweep, then timed sweeps until
  ``--seconds`` are spent (at least :data:`MIN_SWEEPS`).  The warm-up
  only warms host-side imports and memo tables: every run builds a new
  machine, so modelled caches start empty in every sweep.
* ``traced``: a warm-up sweep, one untraced reference sweep and one
  sweep under ``cProfile``, bucketed by layer (see ``layers.py``).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import resource
import statistics
import sys
import time
from typing import Dict, List, Optional, Sequence

MIN_SWEEPS = 3
UNITS = {"us_per_op": "us", "sim_kcycles_per_s": "kcycles/s"}


def summary(values: Sequence[float], unit: str, best: Optional[float] = None) -> Dict:
    """The median of ``values`` -- or ``best``, the best of them -- with
    their quartiles; the samples are kept in run order."""
    ordered = sorted(values)
    q1, _, q3 = (
        statistics.quantiles(ordered, n=4) if len(values) > 1 else ordered * 3
    )
    return {
        "value": statistics.median(ordered) if best is None else best,
        "stat": "median" if best is None else "best",
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "samples": list(values),
    }


def percentile(values: Sequence[float], p: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def setup_role(args) -> Dict:
    started = time.perf_counter()
    import workloads  # imports repro

    workloads.plan(args.workload, args.seed, args.smoke)[0].build()
    return {"setup_s": time.perf_counter() - started}


def timed_role(args) -> Dict:
    import workloads

    runs = workloads.plan(args.workload, args.seed, args.smoke)
    workloads.run_sweep(runs)  # warm-up, untimed
    sweeps: List[list] = []
    started = time.perf_counter()
    while True:
        sweeps.append(workloads.run_sweep(runs))
        per_sweep_s = (time.perf_counter() - started) / len(sweeps)
        if len(sweeps) >= MIN_SWEEPS and per_sweep_s * (len(sweeps) + 1) > args.seconds:
            break
    attempted, failures = workloads.account(sweeps)

    # Every host metric is computed per sweep and reported for the best
    # sweep, with quartiles over all sweeps.  The host's slow phases
    # (+45% for a second or two, every 10-20 s on a shared 2-vCPU VM)
    # hit single sweeps, and the best sweep filters them where the
    # median does not.  Whole sweeps keep the garbage collector's
    # pauses, which recur identically in every sweep.
    ops = sum(r.sim.get("ops", 0) for r in sweeps[0]) or 1
    cycles = sum(r.cycles for r in sweeps[0])
    tails = (50, 90, 99) if len(runs) >= 1000 else (50, 90)
    per_sweep: Dict[str, List[float]] = {}
    for sweep in sweeps:
        walls = [1e3 * r.wall_s for r in sweep]
        values = {
            "us_per_op": 1e3 * sum(walls) / ops,
            "sim_kcycles_per_s": cycles / (sum(r.busy_s for r in sweep) or 1.0) / 1e3,
        }
        # p99 needs ten runs beyond it: 1,000 runs a sweep (fuzz-diff).
        for p in tails:
            values[f"run_ms_p{p}"] = percentile(walls, p)
        for name, value in values.items():
            per_sweep.setdefault(name, []).append(value)
    end_to_end = {}
    for name, values in per_sweep.items():
        best = max(values) if name == "sim_kcycles_per_s" else min(values)
        end_to_end[name] = summary(values, UNITS.get(name, "ms"), best)
    end_to_end["peak_rss_mib"] = summary(
        [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024], "MiB"
    )
    overhead = workloads.dvmc_overhead_pct(runs, sweeps[0])
    if overhead is not None:
        end_to_end["dvmc_overhead_pct"] = summary([overhead], "%")
    return {
        "attempted": attempted,
        "failures": failures,
        "sweeps": len(sweeps),
        "runs_per_sweep": len(runs),
        "end_to_end": end_to_end,
    }


def traced_role(args) -> Dict:
    import layers
    import repro
    import workloads

    runs = workloads.plan(args.workload, args.seed, args.smoke)
    workloads.run_sweep(runs)  # warm-up, untimed
    reference = workloads.run_sweep(runs)
    profiler = cProfile.Profile()
    traced = workloads.run_sweep(runs, profiler)
    attempted, failures = workloads.account([reference, traced])
    untraced_s = sum(r.wall_s for r in reference)
    traced_s = sum(r.wall_s for r in traced)

    profiler.create_stats()
    table = layers.bucket(profiler.stats, os.path.dirname(repro.__file__))
    total = table["total_s"] or 1.0
    rows = {}
    per_layer = {}
    for name, slot in table["layers"].items():
        rows[name] = dict(slot, self_pct=100 * slot["self_s"] / total)
        per_layer[f"layer.{name}.self_pct"] = _value(rows[name]["self_pct"], "%")
        per_layer[f"layer.{name}.calls"] = _value(slot["calls"], "count")
    per_layer["unmapped_pct"] = _value(100 * table["unmapped_s"] / total, "%")
    per_layer["trace_overhead_pct"] = _value(100 * (traced_s / untraced_s - 1), "%")
    per_layer["phase.build_s"] = _value(sum(r.build_s for r in reference), "s")
    per_layer["phase.run_s"] = _value(sum(r.run_s for r in reference), "s")
    per_layer.update(_simulated(runs, reference))
    return {
        "attempted": attempted,
        "failures": failures,
        "per_layer": per_layer,
        "layers": rows,
    }


def _value(value, unit: str) -> Dict:
    return {"value": value, "unit": unit}


def _simulated(runs, records) -> Dict:
    """Exact simulated counts of one sweep; they repeat on every host."""
    import workloads

    tot = {
        name: sum(r.sim.get(name, 0) for r in records) for name in workloads.SIM_TOTALS
    }
    out = {
        "sim.cycles": _value(sum(r.cycles for r in records), "count"),
        "sim.events": _value(sum(r.events for r in records), "count"),
        "sim.ops": _value(tot["ops"], "count"),
        "sim.core.wb_full_stalls": _value(tot["wb_full_stalls"], "count"),
        "sim.core.load_squashes": _value(tot["load_squashes"], "count"),
        "sim.l1.miss_pct": _value(
            100 * tot["l1_misses"] / (tot["l1_accesses"] or 1), "%"
        ),
        "sim.l1.replay_miss_ratio": _value(
            tot["l1_replay_misses"] / (tot["l1_misses"] or 1), "ratio"
        ),
        "sim.home.requests": _value(tot["home_requests"], "count"),
        "sim.net.data_bytes": _value(tot["net_data_bytes"], "B"),
        "sim.net.max_link_bytes_per_cycle": _value(
            max(r.sim.get("max_link_bytes_per_cycle", 0.0) for r in records),
            "B/cycle",
        ),
        "sim.dvcc.informs_sent": _value(tot["informs_sent"], "count"),
        "sim.uo.replay_vc_hits": _value(tot["replay_vc_hits"], "count"),
        "sim.ar.injected_membars": _value(tot["injected_membars"], "count"),
        "sim.sn.checkpoints": _value(tot["checkpoints"], "count"),
        "sim.dvmc_overhead_pct": _value(
            workloads.dvmc_overhead_pct(runs, records) or 0.0, "%"
        ),
        "oracle.events": _value(sum(r.oracle_events for r in records), "count"),
        "oracle.branches": _value(sum(r.oracle_branches for r in records), "count"),
    }
    for outcome in workloads.OUTCOMES:
        count = sum(r.outcome == outcome for r in records)
        out[f"fuzz.outcome.{outcome}"] = _value(count, "count")
    return out


ROLES = {"setup": setup_role, "timed": timed_role, "traced": traced_role}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--role", choices=sorted(ROLES), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    print(json.dumps(ROLES[args.role](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
