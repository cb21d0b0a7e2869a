"""Module -> layer map of the simulator, and cProfile self time by layer.

Every ``src/repro/**/*.py`` file belongs to exactly one layer (see
:data:`RULES`).  :func:`bucket` folds a cProfile ``Profile.stats``
mapping into per-layer self time and call counts:

* a function defined in ``src/repro`` is charged to its file's layer;
* a function of the benchmark itself is *unmapped*: it is the top of
  every call chain;
* any other function -- a C builtin, the standard library, a
  dataclass-generated ``__init__`` -- is charged to the layer of its
  caller, edge by edge, through the profile's caller table.  A caller
  that is itself foreign resolves through its own most frequent
  caller, so ``random.randrange`` called from a workload generator
  lands in ``workload``.

The profiler's own entry (``Profile.disable``) is the interpreter's
time, not the program's, and is left out of the total.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

#: Report order.
LAYERS = (
    "kernel",
    "wake",
    "core",
    "write_buffer",
    "cache",
    "directory",
    "snooping",
    "hooks",
    "interconnect",
    "memory",
    "logical_time",
    "dvmc_cc",
    "dvmc_uo",
    "dvmc_ar",
    "dvmc",
    "safetynet",
    "consistency",
    "workload",
    "system",
    "common",
    "trace",
    "oracle",
    "faults",
    "fuzz",
    "obs",
    "parallel",
)

#: Path relative to ``src/repro`` -> layer.  A file entry wins over the
#: entry of its top-level directory (``"common/"``).
RULES: Dict[str, str] = {
    "__init__.py": "system",
    "__main__.py": "system",
    "cli.py": "system",
    "config.py": "system",
    "fuzz.py": "fuzz",
    "parallel.py": "parallel",
    "common/events.py": "kernel",
    "common/waitsets.py": "wake",
    "common/logical_time.py": "logical_time",
    "common/": "common",
    "processor/write_buffer.py": "write_buffer",
    "processor/": "core",
    "coherence/cache_controller.py": "cache",
    "coherence/directory.py": "directory",
    "coherence/snooping.py": "snooping",
    # hooks.py, messages.py and the package's re-exports.
    "coherence/": "hooks",
    "memory/cache.py": "cache",
    "memory/": "memory",
    "interconnect/": "interconnect",
    "dvmc/coherence_checker.py": "dvmc_cc",
    "dvmc/interval_index.py": "dvmc_cc",
    "dvmc/uniprocessor.py": "dvmc_uo",
    "dvmc/reordering.py": "dvmc_ar",
    "dvmc/streaming.py": "dvmc_ar",
    "dvmc/": "dvmc",
    "recovery/": "safetynet",
    "consistency/": "consistency",
    "workloads/": "workload",
    "system/": "system",
    "verify/": "trace",
    "oracle/": "oracle",
    "faults/": "faults",
    "obs/": "obs",
}

_PROFILER_MARK = "_lsprof.Profiler"
_HARNESS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "")

Func = Tuple[str, int, str]


def layer_of(relpath: str) -> Optional[str]:
    """Layer of a file given by its ``/``-separated path under ``src/repro``."""
    layer = RULES.get(relpath)
    if layer is None and "/" in relpath:
        layer = RULES.get(relpath.split("/", 1)[0] + "/")
    return layer


def bucket(stats: Dict[Func, tuple], src_root: str) -> Dict:
    """Fold ``cProfile.Profile.stats`` into per-layer self time and calls.

    ``src_root`` is the ``src/repro`` directory the profiled code was
    imported from.  Returns ``{"layers": {layer: {"self_s", "calls"}},
    "unmapped_s", "total_s"}``.
    """
    prefix = os.path.join(os.path.abspath(src_root), "")

    def classify(func: Func) -> Tuple[bool, Optional[str]]:
        """(charged to its callers, own layer)."""
        filename = func[0]
        if filename.startswith(prefix):
            return False, layer_of(filename[len(prefix) :].replace(os.sep, "/"))
        return not filename.startswith(_HARNESS), None

    owners: Dict[Func, Optional[str]] = {}

    def owner(func: Func, seen: frozenset) -> Optional[str]:
        if func not in owners:
            foreign, layer = classify(func)
            callers = stats[func][4] if func in stats else None
            if foreign and callers and func not in seen:
                # Most frequent caller; the key breaks ties so the
                # result never depends on dict order.
                top = max(callers, key=lambda c: (callers[c][0], c))
                layer = owner(top, seen | {func})
            owners[func] = layer
        return owners[func]

    layers = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS}
    unmapped = {"self_s": 0.0, "calls": 0}

    def charge(layer: Optional[str], seconds: float, calls: int) -> None:
        slot = unmapped if layer is None else layers[layer]
        slot["self_s"] += seconds
        slot["calls"] += calls

    total = 0.0
    for func, (_cc, nc, tt, _ct, callers) in stats.items():
        if _PROFILER_MARK in func[2]:
            continue
        total += tt
        foreign, layer = classify(func)
        if not foreign or not callers:
            charge(layer, tt, nc)
            continue
        for caller, (edge_nc, _ecc, edge_tt, _ect) in callers.items():
            charge(owner(caller, frozenset((func,))), edge_tt, edge_nc)
    return {"layers": layers, "unmapped_s": unmapped["self_s"], "total_s": total}
