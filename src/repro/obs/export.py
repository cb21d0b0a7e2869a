"""Run snapshots and exporters (JSON / Prometheus text format).

``snapshot_system`` is the pull half of the observability plane: it
takes the machine's own counters from its
:class:`~repro.common.stats.StatsRegistry`, the phase timer of a
machine built with ``obs=True``, and each layer's ``obs_snapshot()``
(scheduler, networks, cache arrays, DVMC checkers — the RealityCheck
argument that a verification stack scales only when every layer is
independently observable).  The result is a plain JSON-safe dict that
``repro.cli run --obs`` prints as a phase table and ``--obs-dir``
writes as ``snapshot.json``; taking it never changes the run.

``to_prometheus`` renders a snapshot in the Prometheus text exposition
format (every simulation counter as a ``_total`` counter series, the
phase and layer figures as gauges) so a run's metrics can be scraped,
diffed, or uploaded as a CI artifact without bespoke tooling.
"""

from __future__ import annotations

import math
import re
from typing import Any, Dict, List

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")

#: Prefix for every exported Prometheus series.
PROM_PREFIX = "repro"


def snapshot_system(system) -> Dict[str, Any]:
    """Plain-data observability snapshot of a built system."""
    layers: Dict[str, Any] = {"scheduler": system.scheduler.obs_snapshot()}

    networks: Dict[str, Any] = {}
    for net in (system.data_network, system.address_network):
        if net is not None:
            networks[net.name] = net.obs_snapshot()
    layers["networks"] = networks

    layers["caches"] = {
        ctrl.l1.name: ctrl.l1.obs_snapshot()
        for ctrl in system.cache_controllers
    }
    layers["dvmc"] = system.dvmc.obs_snapshot()
    layers["wakeups"] = system.wake_hub.obs_snapshot()
    return {
        "counters": system.stats.counters(),
        "phases": system.obs_phases.snapshot(),
        "layers": layers,
    }


def _flatten(prefix: str, value: Any, out: List) -> None:
    if isinstance(value, dict):
        for key, sub in sorted(value.items()):
            _flatten(f"{prefix}_{key}" if prefix else str(key), sub, out)
    elif isinstance(value, bool):
        out.append((prefix, int(value)))
    elif isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            return
        out.append((prefix, value))
    # strings / None / lists are provenance, not metrics: skipped.


def sanitize_metric_name(name: str) -> str:
    """A legal Prometheus metric name for an arbitrary dotted key."""
    name = _NAME_RE.sub("_", name)
    if not name or name[0].isdigit():
        name = f"m_{name}"
    return name


def to_prometheus(snapshot: Dict[str, Any], prefix: str = PROM_PREFIX) -> str:
    """Render a snapshot in the Prometheus text exposition format.

    Counters become ``<prefix>_<name>_total`` counter series; every
    numeric leaf of the phases and layer snapshots becomes a gauge.
    Deeply nested keys flatten with ``_``.
    """
    lines: List[str] = []

    counters = snapshot.get("counters", {})
    for key, value in sorted(counters.items()):
        name = f"{prefix}_{sanitize_metric_name(key)}_total"
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {value}")

    flat: List = []
    for section in ("phases", "layers"):
        _flatten(section, snapshot.get(section, {}), flat)
    for key, value in flat:
        name = f"{prefix}_{sanitize_metric_name(key)}"
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {value}")
    return "\n".join(lines) + "\n"


def write_prometheus(path: str, snapshot: Dict[str, Any]) -> None:
    """Write ``to_prometheus(snapshot)`` at ``path``."""
    import os

    parent = os.path.dirname(os.path.abspath(path))
    os.makedirs(parent, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(to_prometheus(snapshot))


def format_phase_table(snapshot: Dict[str, Any]) -> str:
    """Human-readable phase breakdown (the CLI's ``--obs`` output)."""
    phases = snapshot.get("phases", {})
    exclusive = phases.get("exclusive", {})
    inclusive = phases.get("inclusive", {})
    if not exclusive:
        return "(no phase data recorded)"
    total = sum(exclusive.values()) or 1.0
    rows = ["phase         exclusive      incl.    share"]
    for name, secs in sorted(
        exclusive.items(), key=lambda kv: -kv[1]
    ):
        rows.append(
            f"{name:<12}{secs:>9.4f} s {inclusive.get(name, 0.0):>9.4f} s "
            f"{secs / total:>7.1%}"
        )
    rows.append(f"{'total':<12}{total:>9.4f} s")
    return "\n".join(rows)
