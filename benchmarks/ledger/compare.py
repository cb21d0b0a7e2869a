"""Compare two ledger reports, workload by workload and metric by metric.

    python3 benchmarks/ledger/compare.py A.json B.json

``A`` and ``B`` are reports written by ``run.py --out``.  For every
end-to-end metric both sides' value (a median, or the best sweep) and
quartiles print with a verdict drawn from the bounds in
``BENCHMARK.json``:

* ``unresolved``: either side's spread (see :func:`spread`), as a share
  of its value, exceeds the bound, so the runs cannot tell a change of
  that size from noise;
* ``better`` / ``worse``: B's value moved past the bound;
* ``unchanged``: otherwise.

``failed_pct`` is exact (any change counts) and ``dvmc_overhead_pct``
may move by 1.0 percentage point; ``run_ms_p99`` has no bound.  Beside
the table print each layer's self time and calls on both sides, and
every exact count (``sim.*``, ``layer.*.calls``, ``oracle.*``,
``fuzz.*``) that differs.  Exits 1 when any verdict is ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

ROOT = Path(__file__).resolve().parents[2]

#: Metrics outside BENCHMARK.json: (better, bound, bound is absolute).
COUNTED = {
    "failed_pct": ("lower", 0.0, True),
    "dvmc_overhead_pct": ("lower", 1.0, True),
}


def rules() -> Dict[str, Tuple[str, float, bool]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {m["name"]: (m["better"], m["bound"], False) for m in spec["end_to_end"]}
    out.update(COUNTED)
    return out


def spread(m: Dict, better: str) -> float:
    """How far one side's samples scatter around its value.

    For a median, the inter-quartile range.  For a best-of value, the
    distance to the nearer quartile, e.g. from the fastest sweep to the
    lower quartile of sweep times: the slow tail of a noisy host does
    not make the best sweep uncertain, a loose front does.
    """
    if m.get("stat") != "best":
        return m["q3"] - m["q1"]
    return m["q1"] - m["value"] if better == "lower" else m["value"] - m["q3"]


def verdict(a: Dict, b: Dict, better: str, bound: float, absolute: bool = False) -> str:
    """Verdict on B against A; ``bound`` is a share of A's value unless
    ``absolute``, when it is in the metric's own unit."""
    if absolute:
        scatter = max(spread(a, better), spread(b, better))
        delta = b["value"] - a["value"]
    else:
        scatter = max(_share(spread(a, better), a), _share(spread(b, better), b))
        delta = _share(b["value"] - a["value"], a)
    if scatter > bound:
        return "unresolved"
    gain = -delta if better == "lower" else delta
    if gain > bound:
        return "better"
    if gain < -bound:
        return "worse"
    return "unchanged"


def _share(amount: float, side: Dict) -> float:
    if side["value"]:
        return amount / abs(side["value"])
    return 0.0 if amount == 0 else float("inf")


def _cell(m: Dict) -> str:
    return f"{m['value']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"


def _change(a: float, b: float) -> str:
    if a == b:
        return "0"
    if not a:
        return "new"
    return f"{100 * (b - a) / abs(a):+.1f}%"


def _exact(name: str) -> bool:
    return name.startswith(("sim.", "oracle.", "fuzz.")) or name.endswith(".calls")


def compare(a: Dict, b: Dict) -> Tuple[str, int]:
    """(printable comparison, number of ``worse`` verdicts)."""
    table = rules()
    lines = []
    worse = 0
    for workload, ra in a["workloads"].items():
        rb: Optional[Dict] = b["workloads"].get(workload)
        if rb is None:
            lines.append(f"{workload}: missing from B")
            continue
        lines.append(
            f"{workload:<12} {'metric':<18} {'unit':<10} {'A value [q1, q3]':<28}"
            f" {'B value [q1, q3]':<28} {'change':>8}  verdict"
        )
        for name, ma in ra["end_to_end"].items():
            mb = rb["end_to_end"].get(name)
            if mb is None:
                continue
            rule = table.get(name)
            word = verdict(ma, mb, *rule) if rule else "-"
            worse += word == "worse"
            lines.append(
                f"{workload:<12} {name:<18} {ma['unit']:<10} {_cell(ma):<28}"
                f" {_cell(mb):<28} {_change(ma['value'], mb['value']):>8}  {word}"
            )
        if ra.get("layers") and rb.get("layers"):
            lines.append(
                f"{workload:<12} {'layer':<14} {'A self_s':>9} {'B self_s':>9}"
                f" {'change':>8} {'A calls':>11} {'B calls':>11} {'change':>8}"
            )
            for layer, la in ra["layers"].items():
                lb = rb["layers"][layer]
                lines.append(
                    f"{workload:<12} {layer:<14} {la['self_s']:>9.4f} {lb['self_s']:>9.4f}"
                    f" {_change(la['self_s'], lb['self_s']):>8}"
                    f" {la['calls']:>11} {lb['calls']:>11}"
                    f" {_change(la['calls'], lb['calls']):>8}"
                )
            moved = [
                f"{name} {m['value']} -> {rb['per_layer'][name]['value']}"
                for name, m in ra["per_layer"].items()
                if _exact(name) and rb["per_layer"].get(name, {}).get("value") != m["value"]
            ]
            lines.append(
                f"{workload:<12} exact counts: "
                + ("identical" if not moved else "differ: " + "; ".join(moved))
            )
        lines.append("")
    return "\n".join(lines), worse


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    text, worse = compare(a, b)
    print(text)
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
