"""Address helpers, operation types, membar masks."""

from hypothesis import given, strategies as st

from repro.common.types import (
    BLOCK_SIZE,
    WORD_SIZE,
    WORDS_PER_BLOCK,
    CoherenceState,
    EpochType,
    MembarMask,
    OpType,
    block_of,
    is_word_aligned,
    word_index,
    word_of,
)


class TestAddressHelpers:
    def test_block_alignment(self):
        assert block_of(0) == 0
        assert block_of(63) == 0
        assert block_of(64) == 64
        assert block_of(0x12345) == 0x12340

    def test_word_alignment(self):
        assert word_of(7) == 4
        assert is_word_aligned(8)
        assert not is_word_aligned(9)

    def test_word_index_range(self):
        assert word_index(0) == 0
        assert word_index(BLOCK_SIZE - WORD_SIZE) == WORDS_PER_BLOCK - 1

    @given(st.integers(min_value=0, max_value=2**40))
    def test_block_of_idempotent(self, addr):
        assert block_of(block_of(addr)) == block_of(addr)
        assert block_of(addr) <= addr
        assert addr - block_of(addr) < BLOCK_SIZE

    @given(st.integers(min_value=0, max_value=2**40))
    def test_word_index_consistent(self, addr):
        assert 0 <= word_index(addr) < WORDS_PER_BLOCK
        reconstructed = block_of(addr) + word_index(addr) * WORD_SIZE
        assert reconstructed == word_of(addr)


class TestOpType:
    def test_memory_access_classification(self):
        assert OpType.LOAD.is_memory_access()
        assert OpType.STORE.is_memory_access()
        assert OpType.ATOMIC.is_memory_access()
        assert not OpType.MEMBAR.is_memory_access()
        assert not OpType.STBAR.is_memory_access()

    def test_atomic_expands_to_load_and_store(self):
        assert set(OpType.ATOMIC.access_types()) == {OpType.LOAD, OpType.STORE}

    def test_plain_ops_expand_to_themselves(self):
        assert OpType.LOAD.access_types() == (OpType.LOAD,)
        assert OpType.STORE.access_types() == (OpType.STORE,)


class TestMembarMask:
    def test_bit_values_match_sparc_encoding(self):
        assert MembarMask.LOADLOAD == 0x1
        assert MembarMask.LOADSTORE == 0x2
        assert MembarMask.STORELOAD == 0x4
        assert MembarMask.STORESTORE == 0x8

    def test_full_mask(self):
        assert MembarMask.full() == MembarMask.ALL == 0xF

    def test_mask_composition(self):
        combined = MembarMask.LOADLOAD | MembarMask.STORESTORE
        assert combined & MembarMask.LOADLOAD
        assert not (combined & MembarMask.STORELOAD)


class TestCoherenceState:
    def test_read_permissions(self):
        assert CoherenceState.M.can_read()
        assert CoherenceState.O.can_read()
        assert CoherenceState.S.can_read()
        assert not CoherenceState.I.can_read()

    def test_write_permissions(self):
        assert CoherenceState.M.can_write()
        for state in (CoherenceState.O, CoherenceState.S, CoherenceState.I):
            assert not state.can_write()

    def test_ownership(self):
        assert CoherenceState.M.is_owner()
        assert CoherenceState.O.is_owner()
        assert not CoherenceState.S.is_owner()
        assert not CoherenceState.I.is_owner()


class TestEpochType:
    def test_two_kinds(self):
        assert {EpochType.READ_ONLY, EpochType.READ_WRITE}
