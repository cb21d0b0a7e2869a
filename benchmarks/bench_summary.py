"""Render a fresh-vs-committed ``BENCH_perf.json`` diff as markdown.

CI appends the output to ``$GITHUB_STEP_SUMMARY`` so every build shows
the measured perf trajectory — committed baseline, fresh candidate, and
the relative delta per numeric field — without digging into artifacts.

Usage::

    python benchmarks/bench_summary.py \
        --baseline BENCH_perf.json \
        --candidate /tmp/BENCH_perf.candidate.json
"""

from __future__ import annotations

import argparse
import json
import sys

#: Fields where bigger is better; everything else numeric is
#: lower-is-better (wall clocks, allocation counts) or neutral.
HIGHER_IS_BETTER = {
    "events_per_sec",
    "kernel_events_per_sec",
    "msg_pool_reuse_pct",
    "speedup",
    "cache_hits",
}


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:,.1f}"
    if isinstance(value, int) and not isinstance(value, bool):
        return f"{value:,}"
    return str(value)


def _delta(base, cand, key: str) -> str:
    if (
        not isinstance(base, (int, float))
        or not isinstance(cand, (int, float))
        or isinstance(base, bool)
        or isinstance(cand, bool)
        or not base
    ):
        return ""
    pct = (cand / base - 1.0) * 100.0
    if abs(pct) < 0.05:
        return "±0.0%"
    arrow = ""
    if key in HIGHER_IS_BETTER:
        arrow = " ⬆" if pct > 0 else " ⬇"
    return f"{pct:+.1f}%{arrow}"


def render(baseline: dict, candidate: dict) -> str:
    lines = [
        "## bench_perf: fresh candidate vs committed baseline",
        "",
        "| field | committed | fresh | delta |",
        "|---|---:|---:|---:|",
    ]
    for key in sorted(set(baseline) | set(candidate)):
        base = baseline.get(key)
        cand = candidate.get(key)
        lines.append(
            f"| `{key}` | {_fmt(base)} | {_fmt(cand)} "
            f"| {_delta(base, cand, key)} |"
        )
    lines.append("")
    return "\n".join(lines)


def render_fuzz(report: dict) -> str:
    """Markdown section for a differential fuzz campaign stats file
    (the ``--stats-out`` JSON of ``python -m repro.cli fuzz``)."""
    summary = report.get("summary", {})
    lines = [
        "## differential fuzz: DVMC online vs offline oracle",
        "",
        "| outcome | cases |",
        "|---|---:|",
    ]
    for key in (
        "cases",
        "agree_clean",
        "agree_violation",
        "online_only",
        "missed_violation",
        "undecided",
    ):
        lines.append(f"| `{key}` | {_fmt(summary.get(key, 0))} |")
    lines.append("")
    mismatches = report.get("mismatches", [])
    new = [m for m in mismatches if not m.get("known")]
    lines.append(
        f"**Mismatches**: {len(mismatches)} total, {len(new)} new "
        f"(corpus holds {_fmt(report.get('corpus_size', 0))} known "
        f"reproducers); campaign took "
        f"{report.get('elapsed_seconds', 0)} s"
    )
    lines.append("")
    for entry in mismatches:
        tag = "known" if entry.get("known") else "**NEW**"
        lines.append(
            f"- {tag} `{entry.get('outcome')}`: "
            f"`{json.dumps(entry.get('case', {}))}`"
        )
    if mismatches:
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline")
    parser.add_argument("--candidate")
    parser.add_argument(
        "--fuzz",
        metavar="FILE",
        help="also (or only) render a fuzz campaign stats JSON",
    )
    args = parser.parse_args(argv)
    if bool(args.baseline) != bool(args.candidate):
        parser.error("--baseline and --candidate go together")
    if not args.baseline and not args.fuzz:
        parser.error("nothing to render: pass --baseline/--candidate and/or --fuzz")
    sections = []
    if args.baseline:
        with open(args.baseline) as fh:
            baseline = json.load(fh)
        with open(args.candidate) as fh:
            candidate = json.load(fh)
        sections.append(render(baseline, candidate))
    if args.fuzz:
        with open(args.fuzz) as fh:
            sections.append(render_fuzz(json.load(fh)))
    print("\n".join(sections))
    return 0


if __name__ == "__main__":
    sys.exit(main())
