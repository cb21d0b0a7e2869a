"""The ledger's four workloads: what one sweep runs, and how each run is judged.

A sweep is a fixed list of independent runs made from the benchmark
seed.  Every run builds a fresh machine, so the modelled L1s, MET and
SafetyNet logs start empty.  Runs go through public entry points only:
``build_system`` + ``System.run`` for the simulation grids, and
``fuzz.plan_campaign`` + ``fuzz.run_case`` for the differential rig.

A run *fails* when it raises, does not complete, reports a violation on
a fault-free machine, or -- on ``fuzz-diff`` -- is a fatal or undecided
differential case.  :func:`account` adds the runs whose digest differs
from the same run in the first sweep.  Nothing is filtered out.
"""

from __future__ import annotations

import cProfile
import hashlib
import random
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro import build_system, fuzz
from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.obs.fuzz_counters import OUTCOMES

WORKLOADS = ("paper-dir", "paper-snoop", "sync-rmo", "fuzz-diff")


@dataclass(frozen=True)
class Grid:
    """{Base, DVMC} x programs x seeds on one 8-node machine."""

    protocol: ProtocolKind
    model: ConsistencyModel
    programs: Tuple[Tuple[str, int], ...]  # (generator, ops per core)
    seeds: int


_COMMERCIAL = (("apache", 300), ("oltp", 300), ("jbb", 300))

GRIDS = {
    # The paper's Fig. 3 / Fig. 4 commercial mix on each protocol.
    "paper-dir": Grid(ProtocolKind.DIRECTORY, ConsistencyModel.TSO, _COMMERCIAL, 4),
    "paper-snoop": Grid(ProtocolKind.SNOOPING, ConsistencyModel.TSO, _COMMERCIAL, 4),
    # Lock hand-off and barrier spinning: kernel, wake hub, core pump
    # and the AR checker's membar path.  barnes spins far longer per
    # op than slash, hence its shorter program.
    "sync-rmo": Grid(
        ProtocolKind.DIRECTORY,
        ConsistencyModel.RMO,
        (("slash", 24), ("barnes", 12)),
        5,
    ),
}

#: fuzz-diff: generated litmus tests on every model plus fault-free
#: random programs.  Random programs run on SC and RMO only, and no
#: fault-injected cases run: on TSO/PSO random programs and on injected
#: faults the rig currently reports real ``missed_violation`` cases at
#: about half of all seeds (a known defect, not fixed here), and a
#: benchmark workload must run clean at every seed.
FUZZ_LITMUS = 225  # x 4 models, + FUZZ_RANDOM = 1,000 cases
FUZZ_RANDOM = 100
FUZZ_RANDOM_MODELS = (ConsistencyModel.SC, ConsistencyModel.RMO)


@dataclass
class Record:
    """One run, as measured and judged."""

    wall_s: float  # build + run (+ oracle): the closed-loop cost of the run
    build_s: float = 0.0
    run_s: float = 0.0
    busy_s: float = 0.0  # simulated cycles are divided by this
    cycles: int = 0
    events: int = 0
    sim: Dict[str, float] = field(default_factory=dict)
    digest: str = ""
    problem: str = ""  # why the run failed; empty when it did not
    outcome: str = ""  # fuzz-diff: differential classification
    oracle_events: int = 0
    oracle_branches: int = 0


def _failed(started: float, exc: Exception) -> Record:
    return Record(
        wall_s=time.perf_counter() - started,
        problem=f"raised {type(exc).__name__}: {exc}",
    )


#: (first, last) key component -> simulated total it adds to.
_SUMS = {
    ("core", "retired"): "ops",
    ("core", "wb_full_stalls"): "wb_full_stalls",
    ("core", "load_squashes"): "load_squashes",
    ("l1", "accesses"): "l1_accesses",
    ("l1", "misses"): "l1_misses",
    ("l1", "replay_misses"): "l1_replay_misses",
    ("dir", "gets"): "home_requests",
    ("dir", "getm"): "home_requests",
    ("snoopmem", "gets"): "home_requests",
    ("snoopmem", "getm"): "home_requests",
    ("dvcc", "informs_sent"): "informs_sent",
    ("uo", "replay_vc_hits"): "replay_vc_hits",
    ("ar", "injected_membars"): "injected_membars",
    ("sn", "checkpoints"): "checkpoints",
}
SIM_TOTALS = tuple(dict.fromkeys(_SUMS.values())) + ("net_data_bytes",)


def _observe(record: Record, system, outcome: str = "") -> Record:
    """Fill the simulated totals and the architectural digest."""
    counters = system.stats.counters()
    sim = dict.fromkeys(SIM_TOTALS, 0)
    max_link = 0
    for key, value in counters.items():
        parts = key.split(".")
        name = _SUMS.get((parts[0], parts[-1]))
        if name is not None:
            sim[name] += value
        elif parts[0] == "net" and len(parts) > 3 and parts[2] == "link":
            max_link = max(max_link, value)
            if parts[1] == "data":
                sim["net_data_bytes"] += value
    record.cycles = system.scheduler.now
    record.events = system.scheduler.events_processed
    sim["max_link_bytes_per_cycle"] = max_link / record.cycles if record.cycles else 0.0
    record.sim = sim
    state = (record.cycles, sorted(counters.items()), len(system.violations), outcome)
    record.digest = hashlib.sha1(repr(state).encode()).hexdigest()
    return record


@dataclass(frozen=True)
class SimRun:
    """One (config, generator, seed) point of a grid."""

    config: SystemConfig
    program: str
    ops: int

    @property
    def pair(self) -> Tuple[str, int]:
        """Key shared by this run's Base and DVMC machines."""
        return self.program, self.config.seed

    @property
    def dvmc(self) -> bool:
        return self.config.dvmc.any_enabled

    def build(self):
        return build_system(self.config, workload=self.program, ops=self.ops)

    def execute(self, probe: "Probe") -> Record:
        started = time.perf_counter()
        probe.enable()
        try:
            system = self.build()
            built = time.perf_counter()
            result = system.run()
            done = time.perf_counter()
        except Exception as exc:  # a failed run is counted; the sweep goes on
            return _failed(started, exc)
        finally:
            probe.disable()
        record = Record(
            wall_s=done - started,
            build_s=built - started,
            run_s=done - built,
            busy_s=done - built,
        )
        # An incomplete run has already raised DeadlockError above.
        if result.violations:
            record.problem = (
                f"{len(result.violations)} violation(s) on a fault-free run, "
                f"first: {result.violations[0]}"
            )
        return _observe(record, system)


@dataclass(frozen=True)
class FuzzRun:
    """One differential case through ``fuzz.run_case``."""

    case: fuzz.FuzzCase

    def build(self):
        programs = fuzz.case_programs(self.case)
        config = (
            SystemConfig.protected(model=ConsistencyModel[self.case.model])
            .with_nodes(len(programs))
            .with_seed(self.case.seed)
        )
        return build_system(config, programs=programs)

    def execute(self, probe: "Probe") -> Record:
        probe.system = None
        started = time.perf_counter()
        probe.enable()
        try:
            result = fuzz.run_case(self.case)
            wall = time.perf_counter() - started
        except Exception as exc:  # a failed case is counted; the sweep goes on
            return _failed(started, exc)
        finally:
            probe.disable()
        record = Record(
            wall_s=wall,
            build_s=probe.build_s,
            run_s=probe.run_s,
            busy_s=wall,
            outcome=result.outcome,
            oracle_events=result.oracle_stats.get("events", 0),
            oracle_branches=result.oracle_stats.get("branches", 0),
        )
        if result.fatal or result.outcome == "undecided":
            record.problem = f"{result.outcome}: {self.case.describe()}"
        return _observe(record, probe.system, result.outcome)


class Probe:
    """What one sweep observes besides its clock.

    * The machine ``fuzz.run_case`` builds, with its build and run
      times, so a case reports simulated cycles and counters.  The
      probe wraps the ``build_system`` name ``repro.fuzz`` calls, for
      the duration of the sweep; the wrapper adds two clock reads per
      build and per run and changes nothing else.
    * An optional profiler, enabled exactly over each run's timed
      region, so the per-layer profile covers what the clock covers and
      none of the benchmark's bookkeeping.
    """

    def __init__(self, profiler: Optional[cProfile.Profile] = None) -> None:
        self.profiler = profiler
        self.system = None
        self.build_s = 0.0
        self.run_s = 0.0
        self._build_system = None

    def enable(self) -> None:
        if self.profiler is not None:
            self.profiler.enable()

    def disable(self) -> None:
        if self.profiler is not None:
            self.profiler.disable()

    def __enter__(self) -> "Probe":
        self._build_system = fuzz.build_system
        fuzz.build_system = self._build
        return self

    def __exit__(self, *exc) -> None:
        fuzz.build_system = self._build_system

    def _build(self, *args, **kwargs):
        started = time.perf_counter()
        system = self._build_system(*args, **kwargs)
        self.build_s = time.perf_counter() - started
        run = system.run

        def timed_run(*args, **kwargs):
            started = time.perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                self.run_s = time.perf_counter() - started

        system.run = timed_run
        self.system = system
        return system


def plan(workload: str, seed: int, smoke: bool = False) -> List:
    """The runs of one sweep, made from ``seed`` alone."""
    if workload == "fuzz-diff":
        litmus, randoms = (6, 4) if smoke else (FUZZ_LITMUS, FUZZ_RANDOM)
        cases = fuzz.plan_campaign(
            litmus_count=litmus, fault_runs=0, random_runs=0, seed=seed
        )
        cases += fuzz.plan_campaign(
            litmus_count=0,
            fault_runs=0,
            random_runs=randoms,
            seed=seed,
            models=FUZZ_RANDOM_MODELS,
        )
        return [FuzzRun(case) for case in cases]
    grid = GRIDS[workload]
    rng = random.Random(seed)
    seeds = [rng.randrange(1, 1 << 30) for _ in range(1 if smoke else grid.seeds)]
    runs = []
    for program, ops in grid.programs:
        for run_seed in seeds:
            for make in (SystemConfig.unprotected, SystemConfig.protected):
                config = make(model=grid.model, protocol=grid.protocol)
                runs.append(
                    SimRun(
                        config.with_seed(run_seed),
                        program,
                        max(4, ops // 10) if smoke else ops,
                    )
                )
    return runs


def run_sweep(
    runs: Sequence, profiler: Optional[cProfile.Profile] = None
) -> List[Record]:
    """Closed loop: each run starts when the previous one returns."""
    with Probe(profiler) as probe:
        return [run.execute(probe) for run in runs]


def account(sweeps: Sequence[Sequence[Record]]) -> Tuple[int, List[str]]:
    """(runs attempted, one reason per failed run) over ``sweeps``.

    A run fails on its own ``problem``, or when its digest differs from
    the same run's digest in the first sweep.
    """
    attempted = 0
    failures: List[str] = []
    first = sweeps[0] if sweeps else []
    for k, sweep in enumerate(sweeps):
        for i, record in enumerate(sweep):
            attempted += 1
            if record.problem:
                failures.append(f"sweep {k} run {i}: {record.problem}")
            elif record.digest != first[i].digest and not first[i].problem:
                failures.append(f"sweep {k} run {i}: digest differs from sweep 0")
    return attempted, failures


def dvmc_overhead_pct(runs: Sequence, records: Sequence[Record]) -> Optional[float]:
    """Mean over Base/DVMC pairs of (DVMC cycles / Base cycles - 1), in %.

    ``None`` when the sweep has no pairs (``fuzz-diff``).
    """
    pairs: Dict[tuple, Dict[bool, int]] = {}
    for run, record in zip(runs, records):
        if isinstance(run, SimRun) and record.cycles:
            pairs.setdefault(run.pair, {})[run.dvmc] = record.cycles
    ratios = [p[True] / p[False] - 1 for p in pairs.values() if len(p) == 2]
    if not ratios:
        return None
    return 100 * sum(ratios) / len(ratios)
