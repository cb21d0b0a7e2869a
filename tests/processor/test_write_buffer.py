"""Write buffers: drain policies, fences, forwarding, fault handles."""

from repro.common.stats import StatsRegistry
from repro.processor.write_buffer import OUT_OF_ORDER_OUTSTANDING, WriteBuffer


class Harness:
    """Captures issue/perform callbacks for direct WB testing."""

    def __init__(self, in_order, capacity=8, require_verified=False):
        self.issued = []
        self.performed = []
        self.completions = {}
        self.wb = WriteBuffer(
            node=0,
            capacity=capacity,
            in_order=in_order,
            stats=StatsRegistry(),
            issue=self._issue,
            on_perform=lambda e, old: self.performed.append(e.seq),
            require_verified=require_verified,
        )

    def _issue(self, entry, on_done):
        self.issued.append(entry.seq)
        self.completions[entry.seq] = on_done

    def complete(self, seq, old_value=0):
        self.completions.pop(seq)(old_value)

    def drain(self):
        self.wb.drain(lambda entry: True)


class TestInOrderPolicy:
    def test_strict_program_order(self):
        h = Harness(in_order=True)
        for seq, addr in ((1, 0x100), (2, 0x200), (3, 0x300)):
            h.wb.insert(seq, addr, seq * 10)
        h.drain()
        assert h.issued == [1]  # one outstanding at a time
        h.complete(1)
        h.drain()
        h.complete(2)
        h.drain()
        h.complete(3)
        assert h.issued == [1, 2, 3]
        assert h.performed == [1, 2, 3]

    def test_capacity(self):
        h = Harness(in_order=True, capacity=2)
        h.wb.insert(1, 0x100, 1)
        assert not h.wb.full
        h.wb.insert(2, 0x200, 2)
        assert h.wb.full

    def test_empty_tracks_outstanding(self):
        h = Harness(in_order=True)
        assert h.wb.empty
        h.wb.insert(1, 0x100, 1)
        h.drain()
        assert not h.wb.empty  # issued but not performed
        h.complete(1)
        assert h.wb.empty


class TestOutOfOrderPolicy:
    def test_multiple_outstanding(self):
        h = Harness(in_order=False)
        for seq in (1, 2, 3):
            h.wb.insert(seq, 0x100 * seq, seq)
        h.drain()
        assert len(h.issued) == 3

    def test_same_word_stays_ordered(self):
        h = Harness(in_order=False)
        h.wb.insert(1, 0x100, 10)
        h.wb.insert(2, 0x100, 20)  # same word
        h.drain()
        assert h.issued == [1]  # younger same-word store waits
        h.complete(1)
        h.drain()
        assert h.issued == [1, 2]

    def test_issue_policy_prefers_hot_block(self):
        h = Harness(in_order=False)
        h.wb.insert(1, 0x100, 1)  # lone store to block 0x100
        h.wb.insert(2, 0x200, 2)  # two stores to block 0x200
        h.wb.insert(3, 0x204, 3)
        h.wb.max_outstanding = 1
        h.drain()
        assert h.issued[0] in (2, 3)  # hot block first

    def test_fence_blocks_younger_generation(self):
        h = Harness(in_order=False)
        h.wb.insert(1, 0x100, 1)
        h.wb.fence()  # Stbar
        h.wb.insert(2, 0x200, 2)
        h.drain()
        assert h.issued == [1]
        h.complete(1)
        h.drain()
        assert h.issued == [1, 2]


class TestAdoptOrder:
    """One method sets a buffer's drain policy and its issue cap."""

    def test_out_of_order_issues_up_to_the_cap(self):
        h = Harness(in_order=False)
        for seq in range(1, OUT_OF_ORDER_OUTSTANDING + 3):
            h.wb.insert(seq, 0x100 * seq, seq)
        h.drain()
        assert len(h.issued) == OUT_OF_ORDER_OUTSTANDING

    def test_switched_buffer_drains_like_a_fresh_one(self):
        """An out-of-order buffer that adopts the in-order policy issues
        from the head only, one store at a time, and back again."""
        h = Harness(in_order=False)
        h.wb.adopt_order(True)
        assert h.wb.max_outstanding == 1
        for seq, addr in ((1, 0x100), (2, 0x200), (3, 0x204)):
            h.wb.insert(seq, addr, seq)
        h.drain()
        assert h.issued == [1]
        h.complete(1)
        h.wb.adopt_order(False)
        h.drain()
        assert sorted(h.issued) == [1, 2, 3]


class TestVerificationGate:
    def test_unverified_stores_do_not_drain(self):
        h = Harness(in_order=True, require_verified=True)
        h.wb.insert(1, 0x100, 1)
        h.drain()
        assert h.issued == []
        h.wb.mark_verified(1)
        h.drain()
        assert h.issued == [1]


class TestForwarding:
    def test_youngest_value_wins(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 10)
        h.wb.insert(2, 0x100, 20)
        assert h.wb.forward(0x100) == 20

    def test_no_match_returns_none(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 10)
        assert h.wb.forward(0x104) is None

    def test_word_granular_matching(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x102, 5)  # unaligned address, same word as 0x100
        assert h.wb.forward(0x100) == 5


class TestMayIssueVeto:
    def test_veto_blocks_drain(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 1)
        h.wb.drain(lambda entry: False)
        assert h.issued == []


class TestFaultHandles:
    def test_corrupt_value(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 0xF0)
        assert h.wb.corrupt_entry(0, value_xor=0x0F)
        assert h.wb.entries()[0].value == 0xFF

    def test_corrupt_addr(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 0)
        h.wb.corrupt_entry(0, addr_xor=4)
        assert h.wb.entries()[0].addr == 0x104

    def test_corrupt_out_of_range(self):
        h = Harness(in_order=True)
        assert not h.wb.corrupt_entry(3)

    def test_illegal_reorder_swaps_unissued(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 1)
        h.wb.insert(2, 0x200, 2)
        assert h.wb.illegal_reorder()
        h.drain()
        assert h.issued == [2]  # younger drains first: the injected bug

    def test_illegal_reorder_needs_two_unissued(self):
        h = Harness(in_order=True)
        h.wb.insert(1, 0x100, 1)
        h.drain()  # seq 1 now issued
        h.wb.insert(2, 0x200, 2)
        assert not h.wb.illegal_reorder()

    def test_has_store_older_than(self):
        h = Harness(in_order=True)
        h.wb.insert(5, 0x100, 1)
        assert h.wb.has_store_older_than(6)
        assert not h.wb.has_store_older_than(5)
