"""Ordering tables transcribe the paper's Tables 1-4 exactly."""

from repro.common.types import MembarMask, OpType
from repro.consistency import (
    PC_TABLE,
    PSO_TABLE,
    RMO_TABLE,
    SC_TABLE,
    TSO_TABLE,
    ConsistencyModel,
    format_table,
    table_for,
)

L, S, SB, MB = OpType.LOAD, OpType.STORE, OpType.STBAR, OpType.MEMBAR


class TestTable1ProcessorConsistency:
    def test_all_cells(self):
        assert PC_TABLE.ordered(L, L)
        assert PC_TABLE.ordered(L, S)
        assert not PC_TABLE.ordered(S, L)
        assert PC_TABLE.ordered(S, S)


class TestTable2TSO:
    def test_all_cells(self):
        assert TSO_TABLE.ordered(L, L)
        assert TSO_TABLE.ordered(L, S)
        assert not TSO_TABLE.ordered(S, L)  # the write-buffer relaxation
        assert TSO_TABLE.ordered(S, S)


class TestTable3PSO:
    def test_access_cells(self):
        assert PSO_TABLE.ordered(L, L)
        assert PSO_TABLE.ordered(L, S)
        assert not PSO_TABLE.ordered(S, L)
        assert not PSO_TABLE.ordered(S, S)  # PSO relaxes store-store

    def test_stbar_cells(self):
        assert PSO_TABLE.ordered(S, SB)  # stores before an Stbar...
        assert PSO_TABLE.ordered(SB, S)  # ...and the Stbar before later stores
        assert not PSO_TABLE.ordered(L, SB)
        assert not PSO_TABLE.ordered(SB, L)
        assert not PSO_TABLE.ordered(SB, SB)

    def test_stbar_equals_membar_ss(self):
        """Paper Table 3 note: Stbar == Membar #SS."""
        ss = MembarMask.STORESTORE
        assert PSO_TABLE.ordered(S, MB, second_mask=ss) == PSO_TABLE.ordered(S, SB)
        assert PSO_TABLE.ordered(MB, S, first_mask=ss) == PSO_TABLE.ordered(SB, S)


class TestTable4RMO:
    def test_access_cells_all_relaxed(self):
        for first in (L, S):
            for second in (L, S):
                assert not RMO_TABLE.ordered(first, second)

    def test_membar_mask_cells(self):
        ll, ls = MembarMask.LOADLOAD, MembarMask.LOADSTORE
        sl, ss = MembarMask.STORELOAD, MembarMask.STORESTORE
        # Load -> Membar requires an #LL or #LS bit
        assert RMO_TABLE.ordered(L, MB, second_mask=ll)
        assert RMO_TABLE.ordered(L, MB, second_mask=ls)
        assert not RMO_TABLE.ordered(L, MB, second_mask=sl)
        assert not RMO_TABLE.ordered(L, MB, second_mask=ss)
        # Store -> Membar requires #SL or #SS
        assert RMO_TABLE.ordered(S, MB, second_mask=sl)
        assert RMO_TABLE.ordered(S, MB, second_mask=ss)
        assert not RMO_TABLE.ordered(S, MB, second_mask=ll)
        # Membar -> Load requires #LL or #SL
        assert RMO_TABLE.ordered(MB, L, first_mask=ll)
        assert RMO_TABLE.ordered(MB, L, first_mask=sl)
        assert not RMO_TABLE.ordered(MB, L, first_mask=ss)
        # Membar -> Store requires #LS or #SS
        assert RMO_TABLE.ordered(MB, S, first_mask=ls)
        assert RMO_TABLE.ordered(MB, S, first_mask=ss)
        assert not RMO_TABLE.ordered(MB, S, first_mask=ll)


class TestSC:
    def test_everything_ordered(self):
        for first in (L, S):
            for second in (L, S):
                assert SC_TABLE.ordered(first, second)


class TestModelRelationships:
    def test_strictness_chain(self):
        """SC constrains at least TSO, TSO at least PSO, PSO at least RMO
        (for plain load/store cells)."""
        chain = [SC_TABLE, TSO_TABLE, PSO_TABLE, RMO_TABLE]
        for stricter, weaker in zip(chain, chain[1:]):
            for first in (L, S):
                for second in (L, S):
                    if weaker.ordered(first, second):
                        assert stricter.ordered(first, second)

    def test_table_for_covers_all_models(self):
        for model in ConsistencyModel:
            assert table_for(model) is not None

    def test_model_properties(self):
        assert not ConsistencyModel.TSO.allows_store_store_reordering
        assert ConsistencyModel.PSO.allows_store_store_reordering
        assert ConsistencyModel.RMO.allows_load_reordering
        assert not ConsistencyModel.PSO.allows_load_reordering
        assert ConsistencyModel.TSO.requires_load_order
        assert not ConsistencyModel.RMO.requires_load_order


class TestAtomics:
    def test_atomic_takes_both_constraint_sets(self):
        """Paper Section 4: atomics satisfy load and store orderings."""
        atomic = OpType.ATOMIC
        # Under TSO, Store->Load is relaxed but Atomic->Load is ordered
        # (the atomic's load half gives Load->Load).
        assert TSO_TABLE.ordered(atomic, L)
        assert TSO_TABLE.ordered(atomic, S)
        assert TSO_TABLE.ordered(L, atomic)
        assert TSO_TABLE.ordered(S, atomic)  # via the store half


class TestFormatting:
    def test_format_includes_all_ops(self):
        text = format_table(PSO_TABLE)
        for name in ("LOAD", "STORE", "STBAR", "MEMBAR"):
            assert name in text
        assert "true" in text and "false" in text
