"""Error-detection campaigns (paper Section 6.1).

For each trial: pick an error type, time and location at random, inject
it into a running benchmark, and continue until the error is detected —
then check that a valid SafetyNet checkpoint is still available.  The
paper reports that DVMC detected all injected errors well inside the
~100k-cycle recovery window; :func:`run_campaign` reproduces that
experiment and its summary table.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.common.rng import SplitRng
from repro.config import SystemConfig
from repro.parallel import run_points
from repro.system.builder import build_system

from .injector import ALL_FAULT_KINDS, FaultInjector, FaultKind, FaultPlan


@dataclass
class TrialResult:
    """Outcome of one fault-injection trial."""

    kind: FaultKind
    injected_cycle: int
    landed: bool
    detected: bool
    detector: Optional[str]  # "UO" / "AR" / "CC"
    detection_cycle: Optional[int]
    recoverable: Optional[bool]  # live checkpoint at detection time
    completed: bool  # benchmark ran to completion anyway
    description: str

    @property
    def latency(self) -> Optional[int]:
        if self.detection_cycle is None:
            return None
        return self.detection_cycle - self.injected_cycle

    @property
    def masked(self) -> bool:
        """Fault landed but had no architecturally visible effect."""
        return self.landed and not self.detected and self.completed


def run_trial(
    config: SystemConfig,
    workload: str,
    ops: int,
    kind: FaultKind,
    inject_cycle: int,
    seed: int,
    max_cycles: int = 500_000,
) -> TrialResult:
    """Inject one fault and observe detection."""
    system = build_system(config.with_seed(seed), workload=workload, ops=ops)
    injector = FaultInjector(system, seed=seed * 7919 + inject_cycle)
    injector.arm(FaultPlan(kind, inject_cycle))

    detection = {}

    def on_violation(report) -> None:
        if "cycle" in detection:
            return
        detection["cycle"] = report.cycle
        detection["checker"] = report.checker
        if system.safetynet is not None:
            detection["recoverable"] = system.safetynet.can_recover(inject_cycle)

    system.dvmc.violations._callback = on_violation
    result = system.run(max_cycles=max_cycles, allow_incomplete=True)
    # Close every epoch so the MET sees faults whose natural detection
    # point is the block's next epoch end, then scrub memory so latent
    # corruption in DRAM-resident blocks is activated.
    system.drain_epochs()
    if result.completed:
        system.scrub_memory()
        system.drain_epochs()

    record = injector.records[0] if injector.records else None
    landed = record.landed if record is not None else False
    return TrialResult(
        kind=kind,
        injected_cycle=inject_cycle,
        landed=landed,
        detected="cycle" in detection,
        detector=detection.get("checker"),
        detection_cycle=detection.get("cycle"),
        recoverable=detection.get("recoverable"),
        completed=result.completed,
        description=record.description if record else "plan never fired",
    )


@dataclass(frozen=True)
class TrialSpec:
    """Picklable description of one injection trial (pool-worker input)."""

    config: SystemConfig
    workload: str
    ops: int
    kind: FaultKind
    inject_cycle: int
    seed: int
    max_cycles: int


def run_trial_spec(spec: TrialSpec) -> TrialResult:
    """Top-level worker: execute one :class:`TrialSpec` in this process."""
    return run_trial(
        spec.config,
        spec.workload,
        spec.ops,
        spec.kind,
        spec.inject_cycle,
        seed=spec.seed,
        max_cycles=spec.max_cycles,
    )


def run_campaign(
    config: SystemConfig,
    workload: str = "oltp",
    ops: int = 150,
    kinds: Sequence[FaultKind] = ALL_FAULT_KINDS,
    trials_per_kind: int = 3,
    seed: int = 11,
    jobs: Optional[int] = None,
) -> List[TrialResult]:
    """The Section 6.1 experiment: random (type, time, location) faults.

    All (type, time, location) choices are drawn up front from the
    campaign RNG, then the independent trials fan out across ``jobs``
    worker processes; results come back in trial order, identical to a
    serial campaign.
    """
    rng = SplitRng(seed).child("campaign")
    # Calibrate the injection window against a fault-free run.
    baseline = build_system(config.with_seed(seed), workload=workload, ops=ops)
    base_cycles = baseline.run().cycles
    specs: List[TrialSpec] = []
    for kind in kinds:
        for trial in range(trials_per_kind):
            inject_cycle = rng.randint(base_cycles // 5, (3 * base_cycles) // 5)
            specs.append(
                TrialSpec(
                    config,
                    workload,
                    ops,
                    kind,
                    inject_cycle,
                    seed=seed + trial,
                    max_cycles=3 * base_cycles + 60_000,
                )
            )
    return run_points(specs, jobs=jobs, worker=run_trial_spec)


def summarize(results: List[TrialResult]) -> Dict[FaultKind, Dict[str, float]]:
    """Per-kind detection statistics for the campaign table."""
    out: Dict[FaultKind, Dict[str, float]] = {}
    for kind in {r.kind for r in results}:
        rows = [r for r in results if r.kind is kind]
        landed = [r for r in rows if r.landed]
        detected = [r for r in landed if r.detected]
        latencies = [r.latency for r in detected if r.latency is not None]
        out[kind] = {
            "trials": len(rows),
            "landed": len(landed),
            "detected": len(detected),
            "masked": sum(1 for r in landed if r.masked),
            "recoverable": sum(1 for r in detected if r.recoverable),
            "max_latency": max(latencies) if latencies else 0,
        }
    return out


def format_summary(summary: Dict[FaultKind, Dict[str, float]]) -> str:
    """Paper-style campaign table."""
    header = (
        f"{'fault kind':<18}{'trials':>7}{'landed':>7}{'detected':>9}"
        f"{'masked':>7}{'recov':>6}{'max latency':>13}"
    )
    lines = [header, "-" * len(header)]
    for kind in sorted(summary, key=lambda k: k.value):
        s = summary[kind]
        lines.append(
            f"{kind.value:<18}{s['trials']:>7}{s['landed']:>7}"
            f"{s['detected']:>9}{s['masked']:>7}{s['recoverable']:>6}"
            f"{s['max_latency']:>13}"
        )
    return "\n".join(lines)
