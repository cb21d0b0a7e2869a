"""The fuzz job's summary renderer (``benchmarks/bench_summary.py``).

The script is loaded by path, as CI runs it, and fed the stats file
``repro.cli fuzz --stats-out`` writes.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.cli import main as repro_main

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "benchmarks" / "bench_summary.py"
OUTCOMES = (
    "cases",
    "agree_clean",
    "agree_violation",
    "online_only",
    "missed_violation",
    "undecided",
)


def _load():
    spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def fuzz_stats(tmp_path_factory):
    """A real campaign's stats file: two litmus tests under every model."""
    path = tmp_path_factory.mktemp("fuzz") / "fuzz_stats.json"
    rc = repro_main(
        [
            "fuzz",
            "--litmus", "2",
            "--faults", "0",
            "--randoms", "0",
            "--jobs", "1",
            "--corpus", str(ROOT / "tests" / "corpus"),
            "--stats-out", str(path),
        ]
    )
    assert rc == 0
    return path


def test_tabulates_every_outcome_of_a_campaign(fuzz_stats):
    report = json.loads(fuzz_stats.read_text())
    text = _load().render_fuzz(report)
    for key in OUTCOMES:
        assert f"| `{key}` | {report['summary'][key]:,} |" in text
    assert report["summary"]["cases"] > 0
    assert "**Mismatches**: 0 total, 0 new" in text
    summary = report["summary"]
    assert summary["oracle_events"] > 0
    assert (
        f"**Oracle**: {summary['oracle_events']:,} trace events, "
        f"{summary['oracle_branches']:,} search branches "
        f"(at most {summary['oracle_branches_max']:,} in one case)"
    ) in text


def test_mismatches_are_marked_known_or_new():
    case = {"litmus": "MP", "model": "TSO", "seed": 1}
    report = {
        "summary": {"cases": 1200, "agree_clean": 1198, "online_only": 2},
        "mismatches": [
            {"outcome": "online_only", "known": True, "case": case},
            {"outcome": "online_only", "known": False, "case": case},
        ],
        "corpus_size": 3,
        "elapsed_seconds": 4.5,
    }
    text = _load().render_fuzz(report)
    assert "| `cases` | 1,200 |" in text
    assert "| `undecided` | 0 |" in text
    # A stats file without the oracle totals renders them as 0.
    assert "**Oracle**: 0 trace events, 0 search branches (at most 0" in text
    assert "**Mismatches**: 2 total, 1 new (corpus holds 3 known" in text
    assert f"- known `online_only`: `{json.dumps(case)}`" in text
    assert f"- **NEW** `online_only`: `{json.dumps(case)}`" in text


def test_main_prints_the_rendered_stats(fuzz_stats, capsys):
    module = _load()
    assert module.main(["--fuzz", str(fuzz_stats)]) == 0
    rendered = module.render_fuzz(json.loads(fuzz_stats.read_text()))
    assert capsys.readouterr().out == rendered + "\n"
