"""Layer ledger: the repository's benchmark, in µs per committed op.

Run every workload, timed and traced, and keep the full report::

    python3 benchmarks/ledger/run.py --seed 2006 --out ledger.json

Run one workload in one mode, as a harness does::

    python3 benchmarks/ledger/run.py --workload paper-dir --seed 7 \\
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics: the median of six cold
set-ups, then one fresh subprocess that times closed-loop sweeps for
``--seconds``.  ``--trace 1`` runs one sweep under ``cProfile`` in
another fresh subprocess and reports the per-layer metrics.  Without
``--trace`` both run.  Metric names, units and bounds come from
``BENCHMARK.json`` at the repository root; see README.md beside this
file.  Every metric prints by name and unit, and the last line of
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every run was correct.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Optional

from worker import summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SETUP_STARTS = 6
#: Wall-clock budget of one workload in one mode; a harness stops the
#: whole command at 180 s.
BUDGET_S = 170.0


class LedgerError(RuntimeError):
    """The benchmark could not produce a result."""


def worker_env() -> Dict[str, str]:
    """The caller's environment without simulator switches (``REPRO_*``
    selects alternative regimes), importing ``repro`` from this checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def call_worker(role: str, workload: str, args, deadline: float) -> Dict:
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--role", role,
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--smoke"] if args.smoke else [])
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise LedgerError(f"{workload}: out of time before the {role} worker")
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=worker_env(),
            stdout=subprocess.PIPE,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise LedgerError(f"{workload}: {role} worker ran out of time") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise LedgerError(f"{workload}: {role} worker exited {proc.returncode}")
    return json.loads(lines[-1])


def setup(workload: str, args, deadline: float) -> float:
    return call_worker("setup", workload, args, deadline)["setup_s"]


def measure(workload: str, trace: Optional[int], args) -> Dict:
    """One workload's report; ``trace`` None runs both modes."""
    deadline = time.monotonic() + BUDGET_S
    report = {"attempted": 0, "failures": [], "end_to_end": {}, "per_layer": {}}
    if trace != 1:
        # Cold set-ups before and after the timed sweeps, so one slow
        # phase of the host does not catch them all.
        starts = [setup(workload, args, deadline) for _ in range(SETUP_STARTS // 2)]
        timed = call_worker("timed", workload, args, deadline)
        starts += [setup(workload, args, deadline) for _ in range(SETUP_STARTS - len(starts))]
        report["attempted"] += timed["attempted"]
        report["failures"] += timed["failures"]
        report["sweeps"] = timed["sweeps"]
        report["runs_per_sweep"] = timed["runs_per_sweep"]
        report["end_to_end"] = timed["end_to_end"]
        report["end_to_end"]["setup_s"] = summary(starts, "s")
    if trace != 0:
        traced = call_worker("traced", workload, args, deadline)
        report["attempted"] += traced["attempted"]
        report["failures"] += traced["failures"]
        report["per_layer"] = traced["per_layer"]
        report["layers"] = traced["layers"]
    report["failed"] = len(report["failures"])
    report["correct"] = report["failed"] == 0
    if trace != 1:
        failed_pct = summary([100 * report["failed"] / max(1, report["attempted"])], "%")
        failed_pct["n"] = report["attempted"]
        report["end_to_end"]["failed_pct"] = failed_pct
    return report


def gated(report: Dict, trace: Optional[int], spec: Dict) -> Dict:
    """The metrics ``BENCHMARK.json`` names for this mode, checked."""
    out = {}
    for section, key in (("end_to_end", 0), ("per_layer", 1)):
        if trace is not None and trace != key:
            continue
        for metric in spec[section]:
            name, unit = metric["name"], metric["unit"]
            entry = report[section].get(name)
            if entry is None or entry["unit"] != unit:
                raise LedgerError(f"metric {name} [{unit}] missing or in another unit")
            out[name] = {"value": entry["value"], "unit": unit}
    return out


def print_report(workload: str, report: Dict) -> None:
    tag = f"[{workload}]"
    if "sweeps" in report:
        print(
            f"{tag} {report['sweeps']} timed sweeps of {report['runs_per_sweep']}"
            " runs; host metrics are the best sweep's, q1/q3 over sweeps"
        )
    for name, m in report["end_to_end"].items():
        print(
            f"{tag} {name:<20} {m['value']:>14.6g} {m['unit']:<10}"
            f" q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  n={m['n']}"
        )
    for name, m in report["per_layer"].items():
        if not name.startswith("layer."):
            print(f"{tag} {name:<34} {m['value']:>14.6g} {m['unit']}")
    if report.get("layers"):
        print(f"{tag} {'layer':<14} {'self_s':>10} {'self_%':>8} {'calls':>12}")
        for name, row in report["layers"].items():
            print(
                f"{tag} {name:<14} {row['self_s']:>10.4f}"
                f" {row['self_pct']:>8.2f} {row['calls']:>12}"
            )
    print(
        f"{tag} attempted {report['attempted']}  failed {report['failed']}"
        f"  correct {str(report['correct']).lower()}"
    )
    for reason in report["failures"][:10]:
        print(f"{tag} FAILED {reason}")


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(
            f"error: {ROOT} holds no simulator (src/repro) or no BENCHMARK.json",
            file=sys.stderr,
        )
        return 2
    spec = json.loads(spec_path.read_text())
    names = [w["name"] for w in spec["workloads"]]

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=2006)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--out", help="write the full report here as JSON")
    parser.add_argument(
        "--smoke", action="store_true", help="tiny sweeps, for the tests"
    )
    args = parser.parse_args(argv)

    selected = names if args.workload == "all" else [args.workload]
    reports = {}
    metrics = {}
    try:
        for workload in selected:
            report = reports[workload] = measure(workload, args.trace, args)
            print_report(workload, report)
            for name, value in gated(report, args.trace, spec).items():
                key = name if len(selected) == 1 else f"{workload}.{name}"
                metrics[key] = value
    except LedgerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(
                {
                    "seed": args.seed,
                    "seconds": args.seconds,
                    "smoke": args.smoke,
                    "workloads": reports,
                },
                fh,
                indent=1,
            )
    correct = all(r["correct"] for r in reports.values())
    result = {
        "correct": correct,
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
