"""Print the layer ledger's exact counts, the ones CI gates, as sorted JSON.

Reads a report written by ``benchmarks/ledger/run.py --out`` and prints
one ``"<workload>.<metric>": value`` line per gated count: every
``sim.*``, ``oracle.*`` and ``fuzz.outcome.*`` value, plus
``layer.obs.calls``.  They repeat exactly on every host and on Python
3.11-3.13, so CI diffs them against the committed
``benchmarks/ledger_counts.json``::

    python3 benchmarks/ledger/run.py --seed 2006 --trace 1 --out /tmp/ledger.json
    python3 benchmarks/ledger_counts.py /tmp/ledger.json > /tmp/counts.json
    diff -u benchmarks/ledger_counts.json /tmp/counts.json

Timings, ``self_pct`` and the other ``layer.*.calls`` are left out:
they move with the host or the interpreter.  With the flight recorder
off, a run calls nothing in ``src/repro/obs/``, so ``layer.obs.calls``
is 0 and any obs-layer call added to a run moves it off 0.  A change to
the modelled machine refreshes the committed file with the first two
commands, writing to ``benchmarks/ledger_counts.json``.
"""

import argparse
import json
import sys

GATED_PREFIXES = ("sim.", "oracle.", "fuzz.outcome.")
GATED_NAMES = ("layer.obs.calls",)


def gated_counts(report: dict) -> dict:
    counts = {}
    for workload, entry in report["workloads"].items():
        gated = {
            f"{workload}.{name}": metric["value"]
            for name, metric in entry["per_layer"].items()
            if name.startswith(GATED_PREFIXES) or name in GATED_NAMES
        }
        if not gated:
            raise SystemExit(f"{workload}: no traced counts (run with --trace 1)")
        counts.update(gated)
    return counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("report", help="a report written by ledger/run.py --out")
    args = parser.parse_args(argv)
    with open(args.report) as fh:
        counts = gated_counts(json.load(fh))
    print(json.dumps(counts, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
