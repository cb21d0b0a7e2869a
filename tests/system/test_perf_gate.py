"""The CI perf gate (``benchmarks/check_perf_regression.py``) gates.

The script is loaded by path, as CI runs it, and fed synthetic
baseline and candidate reports.  The express ratchet must judge any
candidate that reports ``events_per_sec``: a gate that keys its
presence check on a field the bench no longer writes skips silently.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "check_perf_regression.py"
)
PINNED = 100_000.0


def _load_gate():
    spec = importlib.util.spec_from_file_location("check_perf_regression", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _report(events_per_sec):
    """A bench report that clears every gate but, perhaps, the ratchet."""
    return {
        "identical": True,
        "events_per_sec": events_per_sec,
        "kernel_events_per_sec": 1_000_000.0,
        "obs_overhead_pct": 0.0,
        "span_overhead_pct": 0.0,
    }


@pytest.mark.parametrize(
    "ratio,exit_code", [(1.05, 1), (1.20, 0)], ids=["below", "above"]
)
def test_express_ratchet_gates_on_events_per_sec(tmp_path, capsys, ratio, exit_code):
    baseline = tmp_path / "baseline.json"
    candidate = tmp_path / "candidate.json"
    baseline.write_text(json.dumps(_report(ratio * PINNED)))
    candidate.write_text(json.dumps(_report(ratio * PINNED)))
    code = _load_gate().main(
        [
            "--baseline",
            str(baseline),
            "--candidate",
            str(candidate),
            "--pr7-baseline",
            str(PINNED),
        ]
    )
    out = capsys.readouterr().out
    assert code == exit_code
    assert "express ratchet skipped" not in out
    assert f"(ratio {ratio:.2f}, floor 1.10)" in out
