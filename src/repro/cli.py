"""Command-line interface: run simulations, campaigns and sweeps.

Examples::

    python -m repro.cli run --workload oltp --model TSO --protocol directory
    python -m repro.cli run --nodes 2 --ops 40 --op-trace trace.jsonl
    python -m repro.cli compare --workload slash --ops 150
    python -m repro.cli inject --fault wb-value-flip --at 4000
    python -m repro.cli campaign --workload slash --trials 2
    python -m repro.cli fuzz --litmus 100 --faults 10 --stats-out fuzz.json
    python -m repro.cli oracle trace.jsonl --model TSO
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.config import ProtocolKind, SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.faults.campaign import format_summary, run_campaign, summarize
from repro.faults.injector import FaultInjector, FaultKind, FaultPlan
from repro.system.builder import build_system
from repro.system.experiments import measure
from repro.verify.trace import Trace, dump_jsonl, record_program
from repro.workloads import WORKLOAD_NAMES
from repro.workloads.suite import make_program


def _config(args, protected: bool) -> SystemConfig:
    factory = SystemConfig.protected if protected else SystemConfig.unprotected
    config = factory(
        model=ConsistencyModel[args.model],
        protocol=ProtocolKind[args.protocol.upper()],
    )
    return config.with_nodes(args.nodes).with_seed(args.seed)


def cmd_run(args) -> int:
    config = _config(args, protected=not args.unprotected)
    trace = programs = None
    if args.op_trace:
        # The whole op stream, recorded as the fuzz rig records it, so
        # ``repro.cli oracle`` can decide the file.
        trace = Trace()
        num = config.num_nodes
        programs = [
            record_program(
                n,
                make_program(args.workload, n, num, config.model, config.seed, args.ops),
                trace,
            )
            for n in range(num)
        ]
    system = build_system(
        config, workload=args.workload, ops=args.ops, programs=programs
    )
    result = system.run()
    print(f"cycles:     {result.cycles}")
    print(f"completed:  {result.completed}")
    print(f"violations: {len(result.violations)}")
    for report in result.violations[:5]:
        print(f"  {report}")
    if args.stats:
        for key, value in sorted(system.stats.counters().items()):
            print(f"  {key} = {value}")
    if trace is not None:
        os.makedirs(os.path.dirname(os.path.abspath(args.op_trace)), exist_ok=True)
        written = dump_jsonl(trace.events, args.op_trace)
        print(f"op trace written: {args.op_trace} ({written} events)")
    if args.obs_dir:
        _export_obs(args, config, system)
    return 0 if result.completed and not result.violations else 1


def _export_obs(args, config: SystemConfig, system) -> None:
    """Print the phase breakdown; write exporter files to --obs-dir."""
    from repro.obs.export import (
        format_phase_table,
        snapshot_system,
        write_prometheus,
    )
    from repro.obs.manifest import run_manifest, write_manifest

    snapshot = snapshot_system(system)
    print(format_phase_table(snapshot))
    out_dir = args.obs_dir
    os.makedirs(out_dir, exist_ok=True)
    manifest = run_manifest(
        config, workload=args.workload, ops=args.ops, seed=args.seed
    )
    write_manifest(os.path.join(out_dir, "manifest.json"), manifest)
    write_prometheus(os.path.join(out_dir, "metrics.prom"), snapshot)
    with open(os.path.join(out_dir, "snapshot.json"), "w") as fh:
        json.dump(snapshot, fh, indent=1, sort_keys=True)
    print(f"obs artifacts written to {out_dir}/")


def cmd_compare(args) -> int:
    print(f"{'model':<6}{'base':>12}{'DVMC':>12}{'overhead':>10}")
    for model in ConsistencyModel:
        base = measure(
            SystemConfig.unprotected(
                model=model, protocol=ProtocolKind[args.protocol.upper()]
            ).with_nodes(args.nodes),
            args.workload,
            ops=args.ops,
            seeds=args.seeds,
            jobs=args.jobs,
        )
        dvmc = measure(
            SystemConfig.protected(
                model=model, protocol=ProtocolKind[args.protocol.upper()]
            ).with_nodes(args.nodes),
            args.workload,
            ops=args.ops,
            seeds=args.seeds,
            jobs=args.jobs,
        )
        overhead = dvmc.runtime_mean / base.runtime_mean - 1
        print(
            f"{model.value:<6}{base.runtime_mean:>12.0f}"
            f"{dvmc.runtime_mean:>12.0f}{overhead:>+9.1%}"
        )
    return 0


def cmd_inject(args) -> int:
    config = _config(args, protected=True)
    system = build_system(config, workload=args.workload, ops=args.ops)
    injector = FaultInjector(system, seed=args.seed)
    injector.arm(FaultPlan(FaultKind(args.fault), args.at))
    detection = {}

    def on_violation(report):
        detection.setdefault("report", report)

    system.dvmc.violations.on_report = on_violation
    system.run(max_cycles=args.max_cycles, allow_incomplete=True)
    system.drain_epochs()
    record = injector.records[0] if injector.records else None
    print(f"injected: {record.description if record else '(never fired)'}")
    if "report" in detection:
        report = detection["report"]
        print(f"DETECTED by {report.checker} at cycle {report.cycle}: {report.kind}")
        print(f"  {report.detail}")
        return 0
    print("not detected (masked or latent)")
    return 2


def cmd_campaign(args) -> int:
    config = _config(args, protected=True)
    # Campaigns are the longest sweeps: default to all-but-one core.
    results = run_campaign(
        config,
        workload=args.workload,
        ops=args.ops,
        trials_per_kind=args.trials,
        seed=args.seed,
        jobs=args.jobs if args.jobs is not None else 0,
    )
    print(format_summary(summarize(results)))
    hangs_missed = [
        r for r in results if r.landed and not r.completed and not r.detected
    ]
    return 1 if hangs_missed else 0


def cmd_fuzz(args) -> int:
    from repro.fuzz import plan_campaign, replay_corpus, run_fuzz_campaign

    if args.replay_corpus:
        failures = 0
        for path, result in replay_corpus(args.corpus):
            status = "FATAL" if result.fatal else result.outcome
            print(f"{status:16s} {os.path.basename(path)}  {result.case.describe()}")
            if result.fatal:
                failures += 1
        print(f"corpus replay: {failures} regressions")
        return 1 if failures else 0

    cases = plan_campaign(
        litmus_count=args.litmus,
        fault_runs=args.faults,
        random_runs=args.randoms,
        seed=args.seed,
    )
    report = run_fuzz_campaign(
        cases,
        jobs=args.jobs,
        corpus_dir=args.corpus,
        reproducer_dir=args.reproducers,
    )
    summary = report.summary
    print(
        f"cases: {summary['cases']}  agree_clean: {summary['agree_clean']}  "
        f"agree_violation: {summary['agree_violation']}  "
        f"online_only: {summary['online_only']}  "
        f"missed_violation: {summary['missed_violation']}  "
        f"undecided: {summary['undecided']}"
    )
    for entry in report.mismatches:
        tag = "known" if entry.get("known") else "NEW"
        print(f"MISMATCH [{tag}] {entry['outcome']}: {json.dumps(entry['case'])}")
        print(f"  {entry['detail']}")
    for path in report.reproducers:
        print(f"reproducer written: {path}")
    if args.stats_out:
        with open(args.stats_out, "w") as fh:
            json.dump(report.to_json(), fh, indent=2, sort_keys=True)
        print(f"stats written: {args.stats_out}")
    print(f"elapsed: {report.elapsed_seconds}s")
    return 1 if report.new_mismatches else 0


def cmd_explain(args) -> int:
    """Violation forensics: recorded replay of a committed reproducer."""
    from repro.fuzz import FuzzCase, run_case_recorded
    from repro.obs.forensics import post_mortem

    with open(args.reproducer) as fh:
        data = json.load(fh)
    case = FuzzCase.from_json(data.get("case", data))
    print(f"replaying {case.describe()} with the flight recorder on...")
    result, recorder = run_case_recorded(case)
    print(f"outcome: {result.outcome}")
    print()
    print(
        post_mortem(
            recorder,
            detail=result.detail or data.get("detail", ""),
            window=args.window,
        )
    )
    if args.trace_out:
        from repro.obs.chrome_trace import write_chrome_trace

        write_chrome_trace(args.trace_out, recorder)
        print(f"chrome trace written: {args.trace_out} (open in Perfetto)")
    return 0


def cmd_oracle(args) -> int:
    from repro.oracle import verify_file

    verdict = verify_file(args.trace, ConsistencyModel[args.model])
    stats = " ".join(f"{k}={v}" for k, v in sorted(verdict.stats.items()))
    if not verdict.decided:
        print(f"UNDECIDED (branch budget exhausted)  {stats}")
        return 2
    if verdict.admissible:
        print(f"ADMISSIBLE under {args.model}  {stats}")
        return 0
    print(f"INADMISSIBLE under {args.model}  {stats}")
    for violation in verdict.violations:
        print(f"  [{violation.rule}] {violation.detail}")
    return 1


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default="oltp")
    parser.add_argument(
        "--model", choices=[m.name for m in ConsistencyModel], default="TSO"
    )
    parser.add_argument(
        "--protocol", choices=["directory", "snooping"], default="directory"
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for independent runs (0 = all cores minus "
        "one; default: REPRO_JOBS env, then 1 — except campaigns, which "
        "default to 0; single `run` invocations always execute in-process)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro", description="DVMC reproduction command line"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # No abbreviated long options: the retired ``--obs`` flag must be
    # rejected, not taken for ``--obs-dir``.
    run = sub.add_parser("run", help="run one simulation", allow_abbrev=False)
    _add_common(run)
    run.add_argument("--unprotected", action="store_true")
    run.add_argument("--stats", action="store_true", help="dump all counters")
    run.add_argument(
        "--obs-dir",
        default=None,
        metavar="DIR",
        help="print the run's phase breakdown and write manifest.json, "
        "metrics.prom and snapshot.json under DIR",
    )
    run.add_argument(
        "--op-trace",
        default=None,
        metavar="FILE",
        help="record every memory operation as JSONL for `repro.cli oracle` "
        "(results are bit-identical either way)",
    )
    run.set_defaults(fn=cmd_run)

    compare = sub.add_parser("compare", help="base-vs-DVMC per model")
    _add_common(compare)
    compare.add_argument("--seeds", type=int, default=2)
    compare.set_defaults(fn=cmd_compare)

    inject = sub.add_parser("inject", help="inject one fault")
    _add_common(inject)
    inject.add_argument(
        "--fault",
        choices=[k.value for k in FaultKind],
        default=FaultKind.WB_VALUE_FLIP.value,
    )
    inject.add_argument("--at", type=int, default=4000)
    inject.add_argument("--max-cycles", type=int, default=500_000)
    inject.set_defaults(fn=cmd_inject)

    campaign = sub.add_parser("campaign", help="full detection campaign")
    _add_common(campaign)
    campaign.add_argument("--trials", type=int, default=2)
    campaign.set_defaults(fn=cmd_campaign)

    fuzz = sub.add_parser(
        "fuzz", help="differential fuzz: DVMC online vs offline oracle"
    )
    fuzz.add_argument("--litmus", type=int, default=100, metavar="N",
                      help="generated litmus specs (each runs once per model)")
    fuzz.add_argument("--faults", type=int, default=10, metavar="N",
                      help="fault-injected random workload runs")
    fuzz.add_argument("--randoms", type=int, default=10, metavar="N",
                      help="fault-free random workload runs")
    fuzz.add_argument("--seed", type=int, default=2006)
    fuzz.add_argument("--jobs", type=int, default=None)
    fuzz.add_argument("--corpus", default="tests/corpus", metavar="DIR",
                      help="committed reproducer corpus (known-mismatch match)")
    fuzz.add_argument("--reproducers", default=None, metavar="DIR",
                      help="write shrunk mismatch reproducers under DIR")
    fuzz.add_argument("--stats-out", default=None, metavar="FILE",
                      help="write the campaign report as JSON")
    fuzz.add_argument("--replay-corpus", action="store_true",
                      help="re-run every committed reproducer instead of fuzzing")
    fuzz.set_defaults(fn=cmd_fuzz)

    explain = sub.add_parser(
        "explain",
        help="violation forensics: replay a reproducer with the flight "
        "recorder and print the causal post-mortem",
    )
    explain.add_argument(
        "reproducer",
        help="committed reproducer JSON (tests/corpus/ format: a FuzzCase "
        "under 'case' plus the mismatch 'detail' string)",
    )
    explain.add_argument(
        "--window", type=int, default=50_000, metavar="CYCLES",
        help="how far back the same-block causal sweep reaches",
    )
    explain.add_argument(
        "--trace-out", default=None, metavar="FILE",
        help="also export the recorded run as a Chrome/Perfetto trace",
    )
    explain.set_defaults(fn=cmd_explain)

    oracle = sub.add_parser(
        "oracle", help="offline admissibility check of a JSONL trace"
    )
    oracle.add_argument("trace", help="trace file (verify.trace JSONL codec)")
    oracle.add_argument(
        "--model", choices=[m.name for m in ConsistencyModel], default="TSO"
    )
    oracle.set_defaults(fn=cmd_oracle)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
