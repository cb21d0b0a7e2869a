"""Differential fuzzing: DVMC online verdicts vs. the offline oracle.

DVMC's checkers decide consistency *online*; the offline oracle
(:mod:`repro.oracle`) decides the same question from the captured trace
with an independent formulation.  This driver runs generated litmus
tests (:mod:`repro.workloads.litmus_gen`) and fault-injected random
workloads through the full simulated machine, records every memory
operation with the shared trace codecs, and requires the two verdicts
to agree:

==================  =================  =====================================
online (DVMC)       offline (oracle)   classification
==================  =================  =====================================
clean               admissible         ``agree_clean``
violation           inadmissible       ``agree_violation``
violation           admissible         ``online_only`` — legal only on fault
                                       runs (sub-architectural errors are
                                       invisible at the value level); a
                                       fault-free run must not produce it
clean               inadmissible       ``missed_violation`` — always fatal
(any)               undecided          ``undecided`` — oracle branch budget
                                       exhausted; counted, never gated
==================  =================  =====================================

A fatal mismatch is shrunk to a minimal :class:`FuzzCase` (threads and
ops greedily removed while the mismatch reproduces) and emitted as a
committable JSON reproducer; ``tests/corpus/`` replays those files as
regressions, and the CI fuzz lane fails when a mismatch shrinks to a
case not already in the corpus.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.common.types import MembarMask
from repro.config import SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.faults.injector import ALL_FAULT_KINDS, FaultInjector, FaultKind, FaultPlan
from repro.obs.fuzz_counters import OUTCOMES
from repro.oracle import check_trace
from repro.parallel import run_points
from repro.processor.operations import Atomic, Compute, Load, Membar, Stbar, Store
from repro.system.builder import build_system
from repro.verify.trace import Trace, record_program
from repro.workloads.litmus_gen import LitmusSpec, classics, generate, slot_addr

#: Fatal differential outcomes (see module docstring).
FATAL_ALWAYS = "missed_violation"
FATAL_UNLESS_FAULT = "online_only"

#: Cap on recorded reruns of non-fatal ``undecided`` cases per campaign.
MAX_UNDECIDED_FORENSICS = 5


@dataclass(frozen=True)
class FuzzCase:
    """Picklable, committable description of one differential run.

    Litmus cases carry the encoded spec; random cases carry the
    (seed, nodes, ops) triple their program stream is derived from, so
    a committed reproducer replays bit-identically.
    """

    model: str  # ConsistencyModel name
    seed: int
    litmus: Optional[str] = None  # encoded LitmusSpec; None -> random case
    name: str = ""
    nodes: int = 0  # random cases only
    ops: int = 0  # random cases only
    fault: Optional[str] = None  # FaultKind value
    fault_cycle: int = 0
    branch_budget: int = 256

    def to_json(self) -> Dict:
        data = {
            k: v
            for k, v in dataclasses.asdict(self).items()
            if v not in (None, "", 0)
        }
        data["model"] = self.model
        data["seed"] = self.seed
        return data

    @classmethod
    def from_json(cls, data: Dict) -> "FuzzCase":
        allowed = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in allowed})

    def describe(self) -> str:
        what = self.name or self.litmus or f"random(nodes={self.nodes}, ops={self.ops})"
        fault = f" fault={self.fault}@{self.fault_cycle}" if self.fault else ""
        return f"{what} model={self.model} seed={self.seed}{fault}"


@dataclass
class CaseResult:
    """One differential run's verdict pair and classification."""

    case: FuzzCase
    outcome: str
    online_clean: bool
    oracle_admissible: bool
    oracle_decided: bool
    completed: bool
    oracle_stats: Dict[str, int] = field(default_factory=dict)
    detail: str = ""

    @property
    def fatal(self) -> bool:
        if self.outcome == FATAL_ALWAYS:
            return True
        return self.outcome == FATAL_UNLESS_FAULT and self.case.fault is None


def classify(online_clean: bool, admissible: bool, decided: bool) -> str:
    if not decided:
        return "undecided"
    if admissible:
        return "agree_clean" if online_clean else "online_only"
    return "missed_violation" if online_clean else "agree_violation"


# -- random workloads --------------------------------------------------------

#: Shared words the random workloads race over (distinct blocks).
RANDOM_SLOTS = 6

_FENCE_MENU = (
    MembarMask.ALL,
    MembarMask.STORELOAD,
    MembarMask.STORESTORE,
    MembarMask.LOADLOAD | MembarMask.LOADSTORE,
)


def random_ops(seed: int, core: int, ops: int) -> List:
    """One core's deterministic random op list.

    Every store/atomic writes ``core << 16 | sequence`` — unique across
    the whole run — so offline reads-from inference never needs the
    oracle's branching fallback.
    """
    rng = random.Random(seed * 1_000_003 + core)
    out: List = []
    seq = 1
    for _ in range(ops):
        roll = rng.random()
        addr = slot_addr(rng.randrange(RANDOM_SLOTS))
        if roll < 0.32:
            out.append(Load(addr))
        elif roll < 0.64:
            out.append(Store(addr, (core << 16) | seq))
            seq += 1
        elif roll < 0.76:
            out.append(Atomic(addr, (core << 16) | seq))
            seq += 1
        elif roll < 0.84:
            out.append(Membar(rng.choice(_FENCE_MENU)))
        elif roll < 0.88:
            out.append(Stbar())
        else:
            out.append(Compute(rng.randrange(1, 120)))
    return out


def _replay(ops: Sequence) -> "generator":
    for op in ops:
        yield op


def case_programs(case: FuzzCase) -> List:
    """Per-core program generators for a case (litmus or random)."""
    if case.litmus is not None:
        return LitmusSpec.decode(case.litmus, name=case.name or None).programs()
    return [
        _replay(random_ops(case.seed, core, case.ops))
        for core in range(case.nodes)
    ]


# -- execution ---------------------------------------------------------------


def _execute_case(case: FuzzCase, max_cycles: int, spans: bool = False):
    """Run one case through the full machine; (system, trace, result)."""
    if case.fault is not None:
        # An injected fault may legitimately hang the machine; bound
        # the wasted simulated time (the partial trace is still
        # checkable — admissibility is prefix-closed).
        max_cycles = min(max_cycles, case.fault_cycle + 250_000)
    model = ConsistencyModel[case.model]
    trace = Trace()
    programs = [
        record_program(core, program, trace)
        for core, program in enumerate(case_programs(case))
    ]
    config = (
        SystemConfig.protected(model=model)
        .with_nodes(len(programs))
        .with_seed(case.seed)
    )
    system = build_system(config, programs=programs, spans=spans)
    if case.fault is not None:
        injector = FaultInjector(system, seed=case.seed * 7919 + case.fault_cycle)
        injector.arm(FaultPlan(FaultKind(case.fault), case.fault_cycle))
    result = system.run(
        max_cycles=max_cycles, allow_incomplete=case.fault is not None
    )
    return system, trace, result


def _differential(case: FuzzCase, trace: Trace, result) -> CaseResult:
    """Classify one finished run against the offline oracle."""
    online_clean = not result.violations
    model = ConsistencyModel[case.model]
    verdict = check_trace(trace, model, branch_budget=case.branch_budget)
    outcome = classify(online_clean, verdict.admissible, verdict.decided)
    detail = ""
    if verdict.violations:
        detail = verdict.violations[0].detail
    elif not online_clean:
        report = result.violations[0]
        detail = f"online: {report}"
    return CaseResult(
        case=case,
        outcome=outcome,
        online_clean=online_clean,
        oracle_admissible=verdict.admissible,
        oracle_decided=verdict.decided,
        completed=result.completed,
        oracle_stats=dict(verdict.stats),
        detail=detail,
    )


def run_case(case: FuzzCase, max_cycles: int = 2_000_000) -> CaseResult:
    """Run one case through the full machine and both verifiers."""
    _, trace, result = _execute_case(case, max_cycles)
    return _differential(case, trace, result)


def run_case_recorded(case: FuzzCase, max_cycles: int = 2_000_000):
    """Re-run a case with the flight recorder on; (result, recorder).

    The recorder captures *every* operation of the shrunk reproducer
    and never feeds back into the simulation, hence the rerun's verdict
    is bit-identical to the plain run the campaign classified.
    """
    system, trace, result = _execute_case(case, max_cycles, spans=True)
    return _differential(case, trace, result), system.spans


def write_forensics(
    case: FuzzCase, detail: str, out_dir: str, stem: str
) -> List[str]:
    """Recorded rerun -> post-mortem + Chrome trace next to a reproducer.

    Returns the artifact paths (``<stem>.postmortem.txt`` and
    ``<stem>.trace.json`` under ``out_dir``).
    """
    from repro.obs.chrome_trace import write_chrome_trace
    from repro.obs.forensics import post_mortem

    result, recorder = run_case_recorded(case)
    os.makedirs(out_dir, exist_ok=True)
    pm_path = os.path.join(out_dir, f"{stem}.postmortem.txt")
    with open(pm_path, "w") as fh:
        fh.write(post_mortem(recorder, detail or result.detail))
    trace_path = os.path.join(out_dir, f"{stem}.trace.json")
    write_chrome_trace(trace_path, recorder)
    return [pm_path, trace_path]


# -- shrinking ---------------------------------------------------------------


def _litmus_variants(spec: LitmusSpec) -> List[LitmusSpec]:
    """All single-removal reductions: drop one thread, or one op."""
    out = []
    threads = spec.threads
    if len(threads) > 1:
        for i in range(len(threads)):
            reduced = threads[:i] + threads[i + 1 :]
            out.append(LitmusSpec("", reduced))
    for i, thread in enumerate(threads):
        if len(thread) <= 1 and len(threads) > 1:
            continue
        for j in range(len(thread)):
            reduced_thread = thread[:j] + thread[j + 1 :]
            if not reduced_thread and len(threads) == 1:
                continue
            kept = (reduced_thread,) if reduced_thread else ()
            reduced = threads[:i] + kept + threads[i + 1 :]
            out.append(LitmusSpec("", reduced))
    return out


def _as_litmus_case(case: FuzzCase) -> Optional[FuzzCase]:
    """Rewrite a random case as an explicit litmus case (same ops,
    timing jitter dropped), so its reproducer is self-describing."""
    threads = []
    for core in range(case.nodes):
        ops = []
        for op in random_ops(case.seed, core, case.ops):
            if isinstance(op, Store):
                ops.append(("st", (op.addr - slot_addr(0)) // 0x40, op.value))
            elif isinstance(op, Load):
                ops.append(("ld", (op.addr - slot_addr(0)) // 0x40))
            elif isinstance(op, Atomic):
                ops.append(("rmw", (op.addr - slot_addr(0)) // 0x40, op.value))
            elif isinstance(op, Membar):
                ops.append(("mb", int(op.mask)))
            elif isinstance(op, Stbar):
                ops.append(("sb",))
        if ops:
            threads.append(tuple(ops))
    if not threads:
        return None
    spec = LitmusSpec("", tuple(threads))
    return dataclasses.replace(
        case,
        litmus=spec.encode(),
        name=f"shrunk-{case.model}-{case.seed}",
        nodes=0,
        ops=0,
    )


def shrink_case(
    case: FuzzCase, max_rounds: int = 200
) -> Tuple[FuzzCase, int]:
    """Greedy 1-removal shrink; returns (minimal case, steps tried).

    Every candidate is re-run through the full machine; a candidate is
    kept only if the differential mismatch still reproduces.  Random
    cases are first rewritten as explicit litmus cases so the final
    reproducer is readable and timing-independent; if the rewrite does
    not reproduce, the original random case is returned unshrunk.
    """

    def mismatches(candidate: FuzzCase) -> bool:
        try:
            return run_case(candidate).fatal
        except Exception:
            return False  # a candidate that breaks the run is not kept

    steps = 0
    if case.litmus is None:
        rewritten = _as_litmus_case(case)
        steps += 1
        if rewritten is None or not mismatches(rewritten):
            return case, steps
        case = rewritten

    spec = LitmusSpec.decode(case.litmus, name=case.name or None)
    improved = True
    while improved and steps < max_rounds:
        improved = False
        for variant in _litmus_variants(spec):
            candidate = dataclasses.replace(case, litmus=variant.encode())
            steps += 1
            if steps >= max_rounds:
                break
            if mismatches(candidate):
                spec, case, improved = variant, candidate, True
                break
    return case, steps


# -- corpus ------------------------------------------------------------------


def corpus_files(corpus_dir: str) -> List[str]:
    if not os.path.isdir(corpus_dir):
        return []
    return sorted(
        os.path.join(corpus_dir, name)
        for name in os.listdir(corpus_dir)
        if name.endswith(".json")
    )


def load_corpus(corpus_dir: str) -> List[FuzzCase]:
    cases = []
    for path in corpus_files(corpus_dir):
        with open(path) as fh:
            data = json.load(fh)
        cases.append(FuzzCase.from_json(data.get("case", data)))
    return cases


def corpus_keys(corpus_dir: str) -> set:
    """Identity keys of committed reproducers (for known-mismatch
    matching: same program shape + model, any seed)."""
    return {
        (case.model, case.litmus, case.nodes, case.ops, case.fault)
        for case in load_corpus(corpus_dir)
    }


def case_key(case: FuzzCase) -> tuple:
    return (case.model, case.litmus, case.nodes, case.ops, case.fault)


def write_reproducer(case: FuzzCase, result_detail: str, out_dir: str) -> str:
    """Emit one committable regression file; returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    key = hashlib.sha1(repr(case_key(case)).encode()).hexdigest()[:8]
    name = f"repro-{case.model.lower()}-{case.seed}-{key}.json"
    path = os.path.join(out_dir, name)
    payload = {
        "case": case.to_json(),
        "detail": result_detail,
        "note": (
            "Shrunk differential-fuzz reproducer: DVMC online and the "
            "offline oracle disagreed on this run.  Replayed by "
            "tests/integration/test_corpus.py; keep until root-caused."
        ),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def replay_corpus(corpus_dir: str) -> List[Tuple[str, CaseResult]]:
    """Re-run every committed reproducer; pairs (path, result)."""
    out = []
    for path in corpus_files(corpus_dir):
        with open(path) as fh:
            data = json.load(fh)
        case = FuzzCase.from_json(data.get("case", data))
        out.append((path, run_case(case)))
    return out


# -- campaign ----------------------------------------------------------------


@dataclass
class FuzzReport:
    """Everything a campaign learned, JSON-ready."""

    summary: Dict[str, int]
    mismatches: List[Dict]
    reproducers: List[str]
    corpus_size: int
    elapsed_seconds: float
    #: Flight-recorder artifacts (post-mortems + Chrome traces) written
    #: next to the reproducers.
    forensics: List[str] = field(default_factory=list)

    @property
    def new_mismatches(self) -> List[Dict]:
        return [m for m in self.mismatches if not m.get("known")]

    def to_json(self) -> Dict:
        return dataclasses.asdict(self)


def plan_campaign(
    litmus_count: int = 500,
    fault_runs: int = 50,
    random_runs: int = 25,
    seed: int = 2006,
    models: Sequence[ConsistencyModel] = tuple(ConsistencyModel),
) -> List[FuzzCase]:
    """Deterministic case list for one campaign.

    Every generated litmus spec runs once per model; fault-injected and
    fault-free random workloads are sampled on top.
    """
    rng = random.Random(seed)
    cases: List[FuzzCase] = []
    specs = classics()
    if litmus_count > len(specs):
        specs += generate(litmus_count - len(specs), seed=seed)
    specs = specs[:litmus_count]
    for spec in specs:
        for model in models:
            cases.append(
                FuzzCase(
                    model=model.name,
                    seed=rng.randrange(1, 1 << 20),
                    litmus=spec.encode(),
                    name=spec.name,
                )
            )
    for _ in range(random_runs):
        cases.append(
            FuzzCase(
                model=rng.choice(list(models)).name,
                seed=rng.randrange(1, 1 << 20),
                nodes=rng.choice((2, 3, 4)),
                ops=rng.randrange(20, 45),
            )
        )
    for _ in range(fault_runs):
        # A random run of this size finishes within a few thousand
        # cycles, so the injection point must sit early for the fault
        # to land while traffic is still in flight.
        ops = rng.randrange(30, 60)
        cases.append(
            FuzzCase(
                model=rng.choice(list(models)).name,
                seed=rng.randrange(1, 1 << 20),
                nodes=rng.choice((2, 3, 4)),
                ops=ops,
                fault=rng.choice(ALL_FAULT_KINDS).value,
                fault_cycle=rng.randrange(300, 20 * ops),
            )
        )
    return cases


def run_fuzz_campaign(
    cases: Sequence[FuzzCase],
    jobs: Optional[int] = None,
    corpus_dir: Optional[str] = None,
    reproducer_dir: Optional[str] = None,
    shrink: bool = True,
) -> FuzzReport:
    """Execute a case list and differential-check every run.

    Fatal mismatches are shrunk (serially, after the parallel sweep)
    and written to ``reproducer_dir``; mismatches whose shrunk shape is
    already committed under ``corpus_dir`` are flagged ``known``.  The
    summary counts cases per outcome, mismatches and shrink steps, and
    totals the oracle's trace events and search branches.
    """
    summary = dict.fromkeys(
        ("cases", *OUTCOMES, "mismatches", "mismatches_known", "shrink_steps"),
        0,
    )
    summary.update(oracle_events=0, oracle_branches=0, oracle_branches_max=0)
    start = time.perf_counter()
    results = run_points(list(cases), jobs=jobs, worker=run_case)
    known = corpus_keys(corpus_dir) if corpus_dir else set()
    mismatches: List[Dict] = []
    reproducers: List[str] = []
    forensics: List[str] = []
    undecided_explained = 0
    for result in results:
        branches = result.oracle_stats.get("branches", 0)
        summary["cases"] += 1
        summary[result.outcome] += 1
        summary["oracle_events"] += result.oracle_stats.get("events", 0)
        summary["oracle_branches"] += branches
        summary["oracle_branches_max"] = max(summary["oracle_branches_max"], branches)
        if (
            result.outcome == "undecided"
            and reproducer_dir
            and undecided_explained < MAX_UNDECIDED_FORENSICS
        ):
            # An exhausted oracle budget is not fatal, but the recorded
            # rerun is cheap context for whoever raises the budget.
            undecided_explained += 1
            stem = f"undecided-{result.case.model.lower()}-{result.case.seed}"
            try:
                forensics.extend(
                    write_forensics(
                        result.case, result.detail, reproducer_dir, stem
                    )
                )
            except Exception:  # pragma: no cover - diagnostics only
                pass
        if not result.fatal:
            continue
        case, detail = result.case, result.detail
        if shrink:
            case, steps = shrink_case(result.case)
            summary["shrink_steps"] += steps
        is_known = case_key(case) in known
        summary["mismatches"] += 1
        summary["mismatches_known"] += is_known
        entry = {
            "case": case.to_json(),
            "original": result.case.to_json(),
            "outcome": result.outcome,
            "detail": detail,
            "known": is_known,
        }
        mismatches.append(entry)
        if reproducer_dir:
            path = write_reproducer(case, detail, reproducer_dir)
            reproducers.append(path)
            # Flight-recorder rerun: drop the automated post-mortem and
            # the Chrome trace next to the committable reproducer so a
            # fatal mismatch arrives pre-investigated.
            stem = os.path.splitext(os.path.basename(path))[0]
            try:
                artifacts = write_forensics(case, detail, reproducer_dir, stem)
            except Exception:  # pragma: no cover - diagnostics only
                artifacts = []
            forensics.extend(artifacts)
            entry["forensics"] = artifacts
    return FuzzReport(
        summary=summary,
        mismatches=mismatches,
        reproducers=reproducers,
        corpus_size=len(corpus_files(corpus_dir)) if corpus_dir else 0,
        elapsed_seconds=round(time.perf_counter() - start, 3),
        forensics=forensics,
    )
