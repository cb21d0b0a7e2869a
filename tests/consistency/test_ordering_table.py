"""OrderingTable mechanics: mask algebra, predecessors, bool grids."""

import pytest
from hypothesis import given, strategies as st

from repro.common.types import MembarMask, OpType
from repro.consistency.ordering_table import OrderingTable

L, S, MB = OpType.LOAD, OpType.STORE, OpType.MEMBAR


class TestConstruction:
    def test_bool_cells_become_masks(self):
        t = OrderingTable("t", {(L, S): True, (S, L): False})
        assert t.cell(L, S) == MembarMask.ALL
        assert t.cell(S, L) == MembarMask.NONE

    def test_missing_cells_default_unordered(self):
        t = OrderingTable("t", {})
        assert not t.ordered(L, S)

    def test_rejects_bad_cell_type(self):
        with pytest.raises(TypeError):
            OrderingTable("t", {(L, S): "yes"})


class TestMaskAlgebra:
    def test_and_rule(self):
        """The paper's AND rule: table mask & instruction mask != 0."""
        t = OrderingTable(
            "t", {(L, MB): MembarMask.LOADLOAD | MembarMask.LOADSTORE}
        )
        assert t.ordered(L, MB, second_mask=MembarMask.LOADLOAD)
        assert not t.ordered(L, MB, second_mask=MembarMask.STORESTORE)
        assert t.ordered(L, MB, second_mask=MembarMask.ALL)
        assert not t.ordered(L, MB, second_mask=MembarMask.NONE)

    @given(
        st.sampled_from(list(MembarMask)),
        st.sampled_from(list(MembarMask)),
    )
    def test_and_rule_commutes_with_masks(self, cell, instr):
        t = OrderingTable("t", {(L, MB): cell})
        assert t.ordered(L, MB, second_mask=instr) == bool(cell & instr)


class TestAtomicExpansion:
    def test_atomic_ordered_if_any_component_is(self):
        t = OrderingTable("t", {(S, S): True})  # only store-store ordered
        assert t.ordered(OpType.ATOMIC, S)  # atomic's store half
        assert t.ordered(S, OpType.ATOMIC)
        assert not t.ordered(L, OpType.ATOMIC)  # load-anything unordered

    def test_atomic_vs_atomic(self):
        t = OrderingTable("t", {(L, L): True})
        assert t.ordered(OpType.ATOMIC, OpType.ATOMIC)


class TestCheckPlans:
    """Allowable Reordering check plans compiled from the table."""

    TABLE = {
        (L, L): True,
        (L, MB): MembarMask.LOADLOAD | MembarMask.LOADSTORE,
        (S, S): True,
        (MB, L): MembarMask.LOADLOAD | MembarMask.STORELOAD,
    }

    def _table(self):
        return OrderingTable("t", self.TABLE, op_types=(L, S, MB))

    def test_plan_lists_table_order_checks_and_counters(self):
        t = self._table()
        checks, targets, bar_bits = t.compile_check_plan(L, MembarMask.ALL)
        # A load checks younger loads and younger membars with #LL/#LS.
        assert checks == (
            (L, L, None),
            (L, MB, MembarMask.LOADLOAD),
            (L, MB, MembarMask.LOADSTORE),
        )
        assert targets == (L,) and bar_bits == ()
        checks, targets, _ = t.compile_check_plan(OpType.ATOMIC, MembarMask.ALL)
        assert targets == (L, S)  # both halves advance their counters
        assert (S, S, None) in checks
        checks, targets, bar_bits = t.compile_check_plan(
            MB, MembarMask.STORELOAD
        )
        # #SL orders the membar before younger loads, not stores.
        assert checks == ((MB, L, None),)
        assert targets == (MB,) and bar_bits == (MembarMask.STORELOAD,)

    def test_checkers_share_one_compile_per_table(self):
        from repro.common.events import Scheduler
        from repro.common.stats import StatsRegistry
        from repro.config import SystemConfig
        from repro.dvmc.framework import ViolationLog
        from repro.dvmc.reordering import AllowableReorderingChecker

        t = self._table()
        compiles = []
        compile_check_plan = t.compile_check_plan

        def counting(op_type, mask):
            compiles.append((op_type, mask))
            return compile_check_plan(op_type, mask)

        t.compile_check_plan = counting
        for node in range(2):
            checker = AllowableReorderingChecker(
                node, Scheduler(), StatsRegistry(), SystemConfig(),
                lambda: t, ViolationLog(),
            )
            for seq in range(3):
                checker.performed(L, seq, MembarMask.ALL)
        assert compiles == [(L, MembarMask.ALL)]
        assert list(t.check_plans) == [(L, MembarMask.ALL)]

