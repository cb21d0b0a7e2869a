"""The CI count gate's extractor (``benchmarks/ledger_counts.py``).

The script is loaded by path, as CI runs it, and fed synthetic ledger
reports.  Its output is diffed against a committed file, so it must
list exactly the gated counts, in a stable order, and move only when
one of them does.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[2] / "benchmarks"
SCRIPT = BENCHMARKS / "ledger_counts.py"
COMMITTED = BENCHMARKS / "ledger_counts.json"
LEDGER_WORKLOADS = ("paper-dir", "paper-snoop", "sync-rmo", "fuzz-diff")

GATED = {
    "sim.cycles": 462187,
    "sim.events": 513025,
    "sim.l1.miss_pct": 17.737233837913024,
    "oracle.events": 13307,
    "oracle.branches": 0,
    "fuzz.outcome.agree_clean": 1000,
    "fuzz.outcome.missed_violation": 0,
    "layer.obs.calls": 864,
}
#: Reported by a traced run but not gated: host time, or counts that
#: differ between interpreter versions.
UNGATED = {
    "layer.kernel.self_pct": 22.3,
    "layer.obs.self_pct": 0.01,
    "layer.kernel.calls": 2502081,
    "layer.write_buffer.calls": 275983,
    "unmapped_pct": 0.003,
    "trace_overhead_pct": 307.7,
    "phase.build_s": 0.023,
    "phase.run_s": 2.99,
}


def _load():
    spec = importlib.util.spec_from_file_location("ledger_counts", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _workload(scale=1):
    per_layer = {
        name: {"value": value * scale, "unit": "count"}
        for name, value in {**GATED, **UNGATED}.items()
    }
    return {
        "attempted": 24,
        "failures": [],
        "end_to_end": {"us_per_op": {"value": 51.0 * scale, "unit": "us"}},
        "per_layer": per_layer,
        "layers": {"kernel": {"self_s": 0.7 * scale, "self_pct": 22.3}},
    }


def _report():
    return {
        "seed": 2006,
        "seconds": 20.0,
        "smoke": False,
        "workloads": {"sync-rmo": _workload(), "paper-dir": _workload(2)},
    }


def _run(tmp_path, capsys, report) -> str:
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps(report))
    assert _load().main([str(path)]) == 0
    return capsys.readouterr().out


def test_lists_exactly_the_gated_counts_sorted(tmp_path, capsys):
    out = _run(tmp_path, capsys, _report())
    keys = list(json.loads(out))
    expected = sorted(
        f"{workload}.{name}" for workload in ("sync-rmo", "paper-dir") for name in GATED
    )
    assert keys == expected
    assert json.loads(out)["paper-dir.sim.cycles"] == 2 * GATED["sim.cycles"]


def test_timings_and_ungated_calls_do_not_move_the_output(tmp_path, capsys):
    before = _run(tmp_path, capsys, _report())
    report = _report()
    for entry in report["workloads"].values():
        entry["end_to_end"]["us_per_op"]["value"] *= 1.4
        entry["layers"]["kernel"]["self_s"] *= 1.4
        for name in UNGATED:
            entry["per_layer"][name]["value"] += 17
    assert _run(tmp_path, capsys, report) == before


@pytest.mark.parametrize(
    "name",
    ["sim.cycles", "oracle.events", "fuzz.outcome.agree_clean", "layer.obs.calls"],
)
def test_a_moved_gated_count_moves_the_output(tmp_path, capsys, name):
    before = _run(tmp_path, capsys, _report())
    report = _report()
    report["workloads"]["sync-rmo"]["per_layer"][name]["value"] += 1
    after = _run(tmp_path, capsys, report)
    assert after != before
    assert json.loads(after)[f"sync-rmo.{name}"] == GATED[name] + 1


def test_an_untraced_report_is_refused(tmp_path, capsys):
    report = _report()
    report["workloads"]["sync-rmo"]["per_layer"] = {}
    with pytest.raises(SystemExit, match="sync-rmo: no traced counts"):
        _run(tmp_path, capsys, report)


def _split(key):
    """``"paper-dir.sim.cycles"`` -> ``("paper-dir", "sim.cycles")``."""
    workload = next(w for w in LEDGER_WORKLOADS if key.startswith(w + "."))
    return workload, key[len(workload) + 1 :]


def test_committed_file_covers_the_ledger_workloads():
    counts = json.loads(COMMITTED.read_text())
    by_workload = {}
    for key in counts:
        workload, name = _split(key)
        by_workload.setdefault(workload, set()).add(name)
    assert sorted(by_workload) == sorted(LEDGER_WORKLOADS)
    gate = _load()
    for names in by_workload.values():
        assert "layer.obs.calls" in names and "sim.cycles" in names
        assert all(
            n.startswith(gate.GATED_PREFIXES) or n in gate.GATED_NAMES for n in names
        )


def test_committed_file_is_what_the_extractor_prints(tmp_path, capsys):
    # CI diffs the two byte for byte, so layout and order matter too.
    committed = COMMITTED.read_text()
    report = {"seed": 2006, "workloads": {}}
    for key, value in json.loads(committed).items():
        workload, name = _split(key)
        if workload not in report["workloads"]:
            # Ungated noise only; the gated counts come from the file.
            entry = report["workloads"][workload] = _workload()
            for gated in GATED:
                del entry["per_layer"][gated]
        per_layer = report["workloads"][workload]["per_layer"]
        per_layer[name] = {"value": value, "unit": "count"}
    assert _run(tmp_path, capsys, report) == committed


def test_runs_as_a_script(tmp_path, capsys):
    expected = _run(tmp_path, capsys, _report())
    done = subprocess.run(
        [sys.executable, str(SCRIPT), str(tmp_path / "ledger.json")],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == expected
