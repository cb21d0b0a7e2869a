"""CI guard: fail when simulator throughput regresses vs the baseline.

Compares a freshly measured ``BENCH_perf.json`` (the *candidate*,
written by ``bench_perf.py --out ...``) against the committed baseline
at the repo root.  Fails when the candidate's serial ``events_per_sec``
or raw-kernel ``kernel_events_per_sec`` drops below ``threshold``
(default 80%) of the baseline's, when the candidate's
serial/parallel/cached/observed metrics were not identical, or
when the observability plane's ``obs_overhead_pct`` — or the flight
recorder's ``span_overhead_pct`` (with ``spans_identical`` asserted) —
exceeds its ceiling (default 3% each).

The wake-on-change kernel's win over fixed-period polling is gated in
the test suite, by exact event count against a polling reference
(``tests/integration/test_wakeup_identity.py``), not here.

The express message plane adds a ratchet: serial ``events_per_sec``
must hold ``--express-threshold`` (default 110%) of the *pinned*
pre-express baseline (``--pr7-baseline``, the serial throughput
committed before the express plane landed).  Unlike the rolling 80%
floor this pins the express plane's absolute win so a later change
cannot silently trade it away while still passing the loose
self-relative check.  Its timing identity with per-hop simulation is
tested in tier-1 (``tests/interconnect/test_express_identity.py``).

The threshold is deliberately loose: CI runners vary, and the guard is
meant to catch order-of-magnitude mistakes (an accidentally quadratic
loop, a lost fast path), not wall-clock noise.

Usage::

    python benchmarks/check_perf_regression.py --candidate /tmp/perf.json
    python benchmarks/check_perf_regression.py \
        --baseline BENCH_perf.json --candidate /tmp/perf.json --threshold 0.8
"""

from __future__ import annotations

import argparse
import json
import os
import sys

DEFAULT_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_perf.json"
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE,
        help="committed BENCH_perf.json (the reference)",
    )
    parser.add_argument(
        "--candidate", required=True, help="freshly measured BENCH_perf.json"
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.8,
        help="minimum candidate/baseline events_per_sec ratio",
    )
    parser.add_argument(
        "--obs-threshold",
        type=float,
        default=3.0,
        help="maximum obs_overhead_pct (REPRO_OBS=1 wall-clock cost, "
        "percent over the unobserved serial pass)",
    )
    parser.add_argument(
        "--spans-threshold",
        type=float,
        default=3.0,
        help="maximum span_overhead_pct (REPRO_OBS_SPANS=1 flight-recorder "
        "wall-clock cost at the default sampling stride, percent over "
        "the unrecorded serial pass)",
    )
    parser.add_argument(
        "--express-threshold",
        type=float,
        default=1.10,
        help="minimum candidate events_per_sec over the pinned "
        "pre-express baseline (the express plane's win is a ratchet)",
    )
    parser.add_argument(
        "--pr7-baseline",
        type=float,
        default=138_207.9,
        help="serial events_per_sec of the last committed baseline "
        "before the express message plane landed",
    )
    args = parser.parse_args(argv)

    with open(args.baseline) as fh:
        baseline = json.load(fh)
    with open(args.candidate) as fh:
        candidate = json.load(fh)

    if not candidate.get("identical", False):
        print("FAIL: candidate metrics were not identical across passes")
        return 1

    failed = False
    for key, label in (
        ("events_per_sec", "serial"),
        ("kernel_events_per_sec", "kernel"),
    ):
        base = baseline.get(key)
        cand = candidate.get(key)
        if base is None or cand is None:
            # Older baselines predate the kernel field; nothing to gate.
            print(f"perf check: {label} skipped ({key} missing)")
            continue
        ratio = cand / base if base else float("inf")
        print(
            f"perf check: {label} candidate {cand:,.0f} ev/s vs baseline "
            f"{base:,.0f} ev/s (ratio {ratio:.2f}, floor {args.threshold:.2f})"
        )
        if cand < base * args.threshold:
            print(
                f"FAIL: {label} throughput regressed below "
                f"{args.threshold:.0%} of the committed baseline"
            )
            failed = True

    express_cand = candidate.get("events_per_sec")
    if express_cand is None:
        print("perf check: express ratchet skipped (events_per_sec missing)")
    else:
        pinned = args.pr7_baseline
        ratio = express_cand / pinned if pinned else float("inf")
        print(
            f"perf check: express serial {express_cand:,.0f} ev/s vs pinned "
            f"pre-express baseline {pinned:,.0f} ev/s "
            f"(ratio {ratio:.2f}, floor {args.express_threshold:.2f})"
        )
        if express_cand < pinned * args.express_threshold:
            print(
                "FAIL: serial throughput fell below "
                f"{args.express_threshold:.0%} of the pinned pre-express "
                "baseline — the express plane's win has been traded away"
            )
            failed = True

    if "spans_identical" in candidate and not candidate["spans_identical"]:
        print(
            "FAIL: the flight recorder (REPRO_OBS_SPANS=1) changed the "
            "deterministic payload — recorder-on must be bit-identical"
        )
        return 1
    span_overhead = candidate.get("span_overhead_pct")
    if span_overhead is None:
        # Older candidates predate the flight recorder; nothing to gate.
        print("perf check: span overhead skipped (span_overhead_pct missing)")
    else:
        print(
            f"perf check: span overhead {span_overhead:+.1f}% "
            f"(ceiling {args.spans_threshold:.1f}%)"
        )
        if span_overhead > args.spans_threshold:
            print(
                "FAIL: REPRO_OBS_SPANS=1 wall-clock overhead exceeds "
                f"{args.spans_threshold:.1f}% of the unrecorded serial pass"
            )
            failed = True

    overhead = candidate.get("obs_overhead_pct")
    if overhead is None:
        print("perf check: obs overhead skipped (obs_overhead_pct missing)")
    else:
        print(
            f"perf check: obs overhead {overhead:+.1f}% "
            f"(ceiling {args.obs_threshold:.1f}%)"
        )
        if overhead > args.obs_threshold:
            print(
                "FAIL: REPRO_OBS=1 wall-clock overhead exceeds "
                f"{args.obs_threshold:.1f}% of the unobserved serial pass"
            )
            failed = True
    if failed:
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
