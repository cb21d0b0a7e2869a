"""Fault injector: every fault kind can land and mutate real state."""

import pytest

from repro.common.errors import SimulationError
from repro.config import SystemConfig
from repro.faults.injector import FaultInjector, FaultKind, FaultPlan
from repro.system.builder import build_system


def busy_system(**kw):
    config = SystemConfig.protected(num_nodes=4, **kw)
    return build_system(config, workload="oltp", ops=150)


def arm_and_run(kind, at_cycle=3000, max_cycles=200_000, **kw):
    system = busy_system(**kw)
    injector = FaultInjector(system, seed=13)
    injector.arm(FaultPlan(kind, at_cycle))
    system.run(max_cycles=max_cycles, allow_incomplete=True)
    return system, injector


class TestNetworkFaults:
    def test_drop_lands(self):
        system, injector = arm_and_run(FaultKind.MSG_DROP)
        assert injector.records and injector.records[0].landed
        assert system.stats.counter("net.data.faults.dropped") == 1

    def test_duplicate_lands(self):
        system, injector = arm_and_run(FaultKind.MSG_DUPLICATE)
        assert system.stats.counter("net.data.faults.duplicated") == 1

    def test_misroute_lands(self):
        system, injector = arm_and_run(FaultKind.MSG_MISROUTE)
        assert system.stats.counter("net.data.faults.misrouted") == 1

    def test_data_flip_waits_for_data_message(self):
        system, injector = arm_and_run(FaultKind.MSG_DATA_FLIP)
        assert injector.records[0].landed


class TestArrayFaults:
    def test_cache_data_flip_mutates_line(self):
        system, injector = arm_and_run(FaultKind.CACHE_DATA_FLIP)
        record = injector.records[0]
        if record.landed:  # a clean line existed at injection time
            assert "cache data flip" in record.description

    def test_mem_data_flip(self):
        system, injector = arm_and_run(FaultKind.MEM_DATA_FLIP)
        record = injector.records[0]
        if record.landed:
            assert system.stats.sum("mem.") >= 1 or "memory flip" in record.description


class TestProcessorFaults:
    def test_wb_value_flip(self):
        system, injector = arm_and_run(FaultKind.WB_VALUE_FLIP)
        assert injector.records[0].landed
        assert system.stats.sum("wb.") > 0

    def test_wb_reorder(self):
        system, injector = arm_and_run(FaultKind.WB_REORDER)
        # May legitimately fail to land if never two unissued entries.
        assert injector.records

    def test_lsq_wrong_value_always_lands(self):
        system, injector = arm_and_run(FaultKind.LSQ_WRONG_VALUE)
        assert injector.records[0].landed
        assert system.stats.sum("core.") > 0

    def test_retry_gives_up_eventually(self):
        """A fault with no possible target records landed=False."""
        config = SystemConfig.protected(num_nodes=2)

        def nothing():
            return
            yield

        system = build_system(config, programs=[nothing(), nothing()])
        injector = FaultInjector(system, seed=1)
        injector.arm(FaultPlan(FaultKind.WB_VALUE_FLIP, 10))
        system.run(max_cycles=100_000, allow_incomplete=True)
        assert injector.records and not injector.records[0].landed


class TestArming:
    def test_arm_refuses_a_cycle_already_past(self):
        """A plan due before the current cycle is refused outright, and
        is not reported later as a plan that found no target."""
        system = busy_system()
        system.run_cycles(500)
        injector = FaultInjector(system, seed=1)
        with pytest.raises(SimulationError):
            injector.arm(FaultPlan(FaultKind.MSG_DROP, 100))
        system.run(allow_incomplete=True)
        assert injector.records == []
