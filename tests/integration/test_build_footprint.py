"""Allocation guard: building a machine costs only what its run touches.

Each core's AR log is sized for long runs but allocated lazily, and
the kernel's queue holds nothing but the records a build posts, so a
freshly built machine retains little: about 100 KiB at 4 nodes.
Preallocating the AR logs would add 192 KiB per core, and a per-cycle
table of 2,048 bucket lists (what the retired calendar-queue kernel
built eagerly) about 110 KiB.  The budget sits above today's figure
with room for neither, so no eager table can creep back.  Counted in
bytes, not time, so the check is deterministic.
"""

import gc
import tracemalloc

from repro.config import SystemConfig
from repro.system.builder import build_system

#: Retained-bytes budget for a freshly built 4-node protected machine.
BUDGET_KIB = 192


def _retained_kib(config):
    build_system(config, workload="oltp", ops=20)  # warm imports and memos
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = build_system(config, workload="oltp", ops=20)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert system.dvmc.ar_checkers  # the AR logs are part of the build
    return retained / 1024


def test_fresh_protected_machine_retains_little():
    config = SystemConfig.protected().with_nodes(4).with_seed(1)
    kib = _retained_kib(config)
    assert kib <= BUDGET_KIB, f"fresh 4-node machine retains {kib:.0f} KiB"
