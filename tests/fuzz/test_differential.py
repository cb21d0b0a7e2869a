"""Differential fuzz driver tests: classification, codecs, campaigns."""

import json

import pytest

from repro import fuzz
from repro.fuzz import (
    CaseResult,
    FuzzCase,
    case_key,
    classify,
    plan_campaign,
    run_case,
    run_fuzz_campaign,
    shrink_case,
    write_reproducer,
)
from repro.workloads.litmus_gen import classics


def test_classify_matrix():
    assert classify(True, True, True) == "agree_clean"
    assert classify(False, False, True) == "agree_violation"
    assert classify(False, True, True) == "online_only"
    assert classify(True, False, True) == "missed_violation"
    assert classify(True, True, False) == "undecided"
    assert classify(False, False, False) == "undecided"


def test_case_json_round_trip():
    cases = [
        FuzzCase(model="TSO", seed=7),
        FuzzCase(model="SC", seed=1, litmus="st0.1,ld1;st1.9,ld0", name="SB"),
        FuzzCase(
            model="RMO",
            seed=3,
            nodes=3,
            ops=25,
            fault="wb-reorder",
            fault_cycle=5000,
        ),
    ]
    for case in cases:
        data = json.loads(json.dumps(case.to_json()))
        assert FuzzCase.from_json(data) == case


def test_fatal_outcomes():
    litmus = classics()[0].encode()
    clean = run_case(FuzzCase(model="TSO", seed=1, litmus=litmus))
    assert clean.outcome == "agree_clean" and not clean.fatal


@pytest.mark.parametrize("model", ["SC", "TSO", "PSO", "RMO"])
def test_classics_agree_on_every_model(model):
    for spec in classics()[:4]:
        case = FuzzCase(
            model=model, seed=2, litmus=spec.encode(), name=spec.name
        )
        result = run_case(case)
        assert not result.fatal, (spec.name, model, result.detail)


def test_plan_campaign_shape_and_determinism():
    a = plan_campaign(litmus_count=12, fault_runs=3, random_runs=2, seed=5)
    b = plan_campaign(litmus_count=12, fault_runs=3, random_runs=2, seed=5)
    assert a == b
    litmus = [c for c in a if c.litmus is not None]
    faults = [c for c in a if c.fault is not None]
    randoms = [c for c in a if c.litmus is None and c.fault is None]
    assert len(litmus) == 12 * 4  # every spec runs once per model
    assert len(faults) == 3
    assert len(randoms) == 2


def test_small_campaign_runs_clean(tmp_path):
    cases = plan_campaign(litmus_count=6, fault_runs=1, random_runs=1, seed=5)
    report = run_fuzz_campaign(
        cases, jobs=1, corpus_dir=str(tmp_path), reproducer_dir=str(tmp_path)
    )
    summary = report.summary
    assert summary["cases"] == len(cases)
    assert summary["missed_violation"] == 0
    assert summary["oracle_events"] > 0
    assert not {"hub_snapshot", "outcomes"} & set(report.to_json())
    # online_only is legitimate for the fault-injected case (DVMC
    # detecting the landed fault); it is fatal only without a fault.
    assert not report.new_mismatches


def test_summary_counts_every_result(monkeypatch, tmp_path):
    """The summary is plain ints: cases per outcome, mismatches (and
    the known ones) with their shrink steps, and oracle totals."""
    cases = [FuzzCase(model="TSO", seed=n, nodes=n, ops=20) for n in (2, 3, 4)]
    outcomes = {2: "agree_clean", 3: "missed_violation", 4: "missed_violation"}
    branches = {2: 4, 3: 9, 4: 0}

    def fake_run_case(case):
        return CaseResult(
            case=case,
            outcome=outcomes[case.seed],
            online_clean=True,
            oracle_admissible=case.seed == 2,
            oracle_decided=True,
            completed=True,
            oracle_stats={"events": 10 * case.seed, "branches": branches[case.seed]},
        )

    monkeypatch.setattr(fuzz, "run_case", fake_run_case)
    monkeypatch.setattr(fuzz, "shrink_case", lambda case: (case, 5))
    write_reproducer(cases[1], "committed", str(tmp_path))
    report = run_fuzz_campaign(cases, jobs=1, corpus_dir=str(tmp_path))
    assert report.summary == {
        "cases": 3,
        "agree_clean": 1,
        "agree_violation": 0,
        "online_only": 0,
        "missed_violation": 2,
        "undecided": 0,
        "mismatches": 2,
        "mismatches_known": 1,
        "shrink_steps": 10,
        "oracle_events": 90,
        "oracle_branches": 13,
        "oracle_branches_max": 9,
    }
    assert [m["known"] for m in report.mismatches] == [True, False]


def test_reproducer_file_name_is_stable(tmp_path):
    case = FuzzCase(model="TSO", seed=9, litmus="st0.1,ld1;st1.9,ld0")
    p1 = write_reproducer(case, "detail", str(tmp_path))
    p2 = write_reproducer(case, "detail", str(tmp_path))
    assert p1 == p2
    data = json.load(open(p1))
    assert FuzzCase.from_json(data["case"]) == case
    assert case_key(FuzzCase.from_json(data["case"])) == case_key(case)


def test_shrink_returns_original_when_no_mismatch():
    case = FuzzCase(model="TSO", seed=1, litmus=classics()[0].encode())
    shrunk, steps = shrink_case(case)
    assert shrunk == case  # nothing to shrink: the case does not mismatch
    assert steps >= 1
