"""Kernel vs heap reference kernel on full-system runs.

``tests/common/test_events_equivalence.py`` checks the kernel's
:class:`Scheduler` against ``_HeapScheduler``, the plain ``(time, seq)``
heap reference in ``tests/common/test_events.py``, on randomized
programs.  Here the same reference drives a whole machine: every
component of a built system schedules on it, so the whole-system
traffic (pipelines, cache and link latencies, wakeup agendas in late
lanes, far-future heartbeats and checkpoint timers, the quiescence
halt and the post-run settle windows) must simulate byte-for-byte the
same run — same cycle count, same event count, same violation count,
and the same value for every stats counter — across the 5-workload x
2-protocol matrix.
"""

import pytest

import repro.system.builder as builder
from repro.common.events import Scheduler
from repro.config import ProtocolKind, SystemConfig
from repro.parallel import RunSpec, execute_run_spec
from repro.workloads import WORKLOAD_NAMES
from tests.common.test_events import _HeapScheduler


def run_on(kernel, spec, monkeypatch):
    """Run ``spec`` with every system built on ``kernel``."""
    monkeypatch.setattr(builder, "Scheduler", kernel)
    return execute_run_spec(spec)


@pytest.mark.parametrize("protocol", list(ProtocolKind))
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_kernel_and_heap_runs_identical(protocol, workload, monkeypatch):
    spec = RunSpec(
        SystemConfig.protected(protocol=protocol, num_nodes=4).with_seed(3),
        workload,
        30,
    )
    kernel = run_on(Scheduler, spec, monkeypatch)
    heap = run_on(_HeapScheduler, spec, monkeypatch)
    assert kernel == heap  # RunMetrics equality covers every counter
    assert kernel.events_processed == heap.events_processed
    assert kernel.completed and heap.completed
