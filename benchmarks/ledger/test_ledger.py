"""Tests of the ledger benchmark (``--smoke`` scale, under a minute)::

    python -m pytest benchmarks/ledger
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import compare
import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def ledger(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [
            sys.executable,
            str(HERE / "run.py"),
            "--workload", workload,
            "--seed", "11",
            "--seconds", "1",
            "--trace", str(trace),
            "--smoke",
        ],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- layer map ---------------------------------------------------------------


def test_every_simulator_module_maps_to_exactly_one_layer():
    src = ROOT / "src" / "repro"
    files = sorted(p.relative_to(src).as_posix() for p in src.rglob("*.py"))
    mapped = {f: layers.layer_of(f) for f in files}
    assert [f for f, layer in mapped.items() if layer not in layers.LAYERS] == []
    assert set(mapped.values()) == set(layers.LAYERS), "a layer has no module"
    assert [r for r in layers.RULES if not (src / r).exists()] == []


def test_bucket_charges_foreign_code_to_its_callers_layer():
    src = "/x/src/repro"
    pump = (f"{src}/processor/core.py", 10, "pump")
    check = (f"{src}/oracle/verifier.py", 5, "check")
    loop = (str(HERE / "worker.py"), 1, "timed_role")
    length = ("~", 0, "<built-in method builtins.len>")
    randrange = ("/usr/lib/python3/random.py", 300, "randrange")
    getrandbits = ("~", 0, "<method 'getrandbits' of '_random.Random' objects>")
    disable = ("~", 0, "<method 'disable' of '_lsprof.Profiler' objects>")
    stats = {
        pump: (4, 4, 0.5, 1.0, {loop: (4, 4, 0.5, 1.0)}),
        check: (2, 2, 0.3, 0.4, {loop: (2, 2, 0.3, 0.4)}),
        length: (6, 6, 0.06, 0.06, {pump: (4, 4, 0.04, 0.04), check: (2, 2, 0.02, 0.02)}),
        randrange: (3, 3, 0.03, 0.05, {pump: (3, 3, 0.03, 0.05)}),
        getrandbits: (3, 3, 0.02, 0.02, {randrange: (3, 3, 0.02, 0.02)}),
        loop: (1, 1, 0.01, 1.5, {}),
        disable: (1, 1, 0.5, 0.5, {loop: (1, 1, 0.5, 0.5)}),
    }
    table = layers.bucket(stats, src)
    assert table["layers"]["core"]["self_s"] == pytest.approx(0.59)
    assert table["layers"]["core"]["calls"] == 14
    assert table["layers"]["oracle"]["self_s"] == pytest.approx(0.32)
    assert table["layers"]["oracle"]["calls"] == 4
    assert table["unmapped_s"] == pytest.approx(0.01)
    assert table["total_s"] == pytest.approx(0.92)


# -- failure accounting ------------------------------------------------------


def test_known_missed_violation_counts_as_failed():
    # A real missed violation of the differential rig (fault-free PSO
    # random program), kept until it is fixed in the simulator.
    from repro import fuzz

    case = fuzz.FuzzCase(model="PSO", seed=640862, nodes=3, ops=34)
    assert case in fuzz.plan_campaign(300, 100, 100, seed=1234)
    with workloads.Probe() as probe:
        record = workloads.FuzzRun(case).execute(probe)
    assert record.problem.startswith("missed_violation")
    attempted, failures = workloads.account([[record]])
    assert (attempted, len(failures)) == (1, 1)


def test_violation_on_fault_free_run_counts_as_failed(monkeypatch):
    real_build = workloads.build_system

    def build_flagging_a_violation(*args, **kwargs):
        system = real_build(*args, **kwargs)
        run = system.run

        def run_and_flag(**kw):
            result = run(**kw)
            result.violations.append("planted report")
            return result

        system.run = run_and_flag
        return system

    monkeypatch.setattr(workloads, "build_system", build_flagging_a_violation)
    run = workloads.plan("paper-dir", seed=5, smoke=True)[0]
    with workloads.Probe() as probe:
        record = run.execute(probe)
    assert record.problem.startswith("1 violation(s) on a fault-free run")
    assert workloads.account([[record]])[1] != []


def test_sweep_whose_digest_differs_counts_as_failed():
    first = [workloads.Record(wall_s=1.0, digest="a"), workloads.Record(wall_s=1.0, digest="b")]
    second = [workloads.Record(wall_s=1.0, digest="a"), workloads.Record(wall_s=1.0, digest="c")]
    attempted, failures = workloads.account([first, second])
    assert attempted == 4
    assert failures == ["sweep 1 run 1: digest differs from sweep 0"]


# -- metric contract -----------------------------------------------------------


def test_names_and_workloads():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert [n for n in names if not NAME.match(n)] == []
    assert len(names) == len(set(names))
    assert tuple(w["name"] for w in SPEC["workloads"]) == workloads.WORKLOADS


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_and_repeats_its_counts(workload):
    timed = ledger(workload, 0)
    assert timed["correct"] and timed["failed"] == 0 and timed["attempted"] > 0
    assert {n: m["unit"] for n, m in timed["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    assert all(m["value"] > 0 for m in timed["metrics"].values())

    first, second = ledger(workload, 1), ledger(workload, 1)
    assert {n: m["unit"] for n, m in first["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]
    }
    assert first["metrics"]["unmapped_pct"]["value"] <= 2.0
    exact = [n for n in first["metrics"] if n.startswith("sim.") or n.endswith(".calls")]
    assert {n: first["metrics"][n] for n in exact} == {n: second["metrics"][n] for n in exact}


def test_compare_verdicts():
    a = {"value": 100.0, "q1": 99.0, "q3": 101.0}
    assert compare.verdict(a, dict(a), "lower", 0.1) == "unchanged"
    assert compare.verdict(a, {"value": 120.0, "q1": 119.0, "q3": 121.0}, "lower", 0.1) == "worse"
    assert compare.verdict(a, {"value": 80.0, "q1": 79.0, "q3": 81.0}, "lower", 0.1) == "better"
    assert compare.verdict(a, {"value": 100.0, "q1": 80.0, "q3": 120.0}, "lower", 0.1) == "unresolved"
    # A best-of value is judged by its nearer quartile, not the slow tail.
    best = {"value": 100.0, "q1": 102.0, "q3": 140.0, "stat": "best"}
    assert compare.verdict(best, dict(best), "lower", 0.1) == "unchanged"
    assert compare.verdict(best, dict(best, q1=120.0), "lower", 0.1) == "unresolved"
    failed = {"value": 0.0, "q1": 0.0, "q3": 0.0}
    assert compare.verdict(failed, {"value": 0.1, "q1": 0.1, "q3": 0.1}, "lower", 0.0, True) == "worse"
