"""Write buffers: the paper's per-model store optimisations (Table 5).

* **TSO — in-order write buffer**: stores drain strictly in program
  order, one outstanding store transaction at a time; store misses come
  off the critical path.
* **PSO/RMO — out-of-order write buffer**: any fence-eligible entry may
  drain; the issue policy picks the oldest store of the block with the
  most queued stores first and coalesces all queued stores to that
  block into one ownership acquisition, reducing write-buffer stalls
  and coherence traffic.

Fences (Stbar under PSO, Membar with #SS under any model) divide the
buffer into generations; a store may not drain while an older
generation has stores left.  Loads are forwarded the youngest matching
word (the paper's "incorrect forwarding" fault targets this path).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.common.stats import StatsRegistry
from repro.common.types import block_of, word_of

#: Store transactions the out-of-order policy keeps issued at once; the
#: in-order policy issues one at a time.
OUT_OF_ORDER_OUTSTANDING = 4


class WBEntry:
    """One buffered store."""

    __slots__ = (
        "seq",
        "addr",
        "value",
        "generation",
        "verified",
        "issued",
        "tid",
        "token",
    )

    def __init__(self, seq: int, addr: int, value: int, generation: int):
        self.seq = seq
        self.addr = addr
        self.value = value
        self.generation = generation
        self.verified = False  # UO checker replayed it (VC entry exists)
        self.issued = False  # handed to the cache controller
        self.tid = 0  # flight-recorder trace id (0 = untraced)
        self.token = 0  # open residency-span token (0 = none)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"WBEntry(seq={self.seq} addr=0x{self.addr:x} v={self.value})"


class WriteBuffer:
    """Store buffer with in-order or out-of-order drain policy.

    The core inserts stores at commit and calls :meth:`drain` whenever
    drain conditions may have changed; the buffer issues eligible
    stores to the cache controller and reports each perform through
    ``on_perform(entry, old_value)``.

    Args:
        node: owning core id (stats only).
        capacity: number of entries (paper Table 7: 8).
        in_order: True for the TSO policy, False for PSO/RMO (see
            :meth:`adopt_order`).
    """

    def __init__(
        self,
        node: int,
        capacity: int,
        in_order: bool,
        stats: StatsRegistry,
        issue: Callable[[WBEntry, Callable[[int], None]], None],
        on_perform: Callable[["WBEntry", int], None],
        require_verified: bool = False,
    ):
        self.node = node
        self.capacity = capacity
        self.adopt_order(in_order)
        self.stats = stats
        self._issue = issue
        self._on_perform = on_perform
        self.require_verified = require_verified
        #: WaitSet notified when a store performs (set by the owning
        #: core): frees buffer space and clears drain/ordering gates.
        self.wakes = None
        self._entries: List[WBEntry] = []
        self._outstanding = 0
        self._generation = 0
        self._stat = f"wb.{node}"
        # Precomputed per-event stat keys (f-string assembly is
        # measurable at insert/forward/issue call rates).
        self._h_inserts = stats.handle(f"wb.{node}.inserts")
        self._h_forwards = stats.handle(f"wb.{node}.forwards")
        self._h_issues = stats.handle(f"wb.{node}.issues")
        self._h_performs = stats.handle(f"wb.{node}.performs")
        self._values = stats.values

    def adopt_order(self, in_order: bool) -> None:
        """Take the in-order (TSO) or out-of-order (PSO/RMO) drain
        policy, with its cap on concurrently issued stores."""
        self.in_order = in_order
        #: Cap on concurrently issued store transactions.
        self.max_outstanding = 1 if in_order else OUT_OF_ORDER_OUTSTANDING

    # -- occupancy ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.capacity

    @property
    def empty(self) -> bool:
        return not self._entries and self._outstanding == 0

    def entries(self) -> List[WBEntry]:
        """Live entries (fault injection targets these)."""
        return list(self._entries)

    def has_store_older_than(self, seq: int) -> bool:
        """Any unperformed store with sequence number below ``seq``?"""
        # Plain loop, not any(genexpr): this is the per-poll gate of
        # every blocked operation and the generator frame dominates.
        for e in self._entries:
            if e.seq < seq:
                return True
        return False

    # -- core-facing -----------------------------------------------------------
    def insert(self, seq: int, addr: int, value: int) -> WBEntry:
        """Append a committed store.  Caller must check :attr:`full`."""
        entry = WBEntry(seq, addr, value, self._generation)
        self._entries.append(entry)
        self._values[self._h_inserts] += 1
        return entry

    def fence(self) -> None:
        """Close the current generation (Stbar / Membar #SS)."""
        self._generation += 1

    def mark_verified(self, seq: int) -> None:
        """The UO checker replayed this store; it may now drain."""
        for entry in self._entries:
            if entry.seq == seq:
                entry.verified = True
                return

    def forward(self, addr: int) -> Optional[int]:
        """Youngest buffered value for the word at ``addr``, if any."""
        if not self._entries:
            return None
        word = word_of(addr)
        value = None
        for entry in self._entries:  # oldest -> youngest
            if word_of(entry.addr) == word:
                value = entry.value
        if value is not None:
            self._values[self._h_forwards] += 1
        return value

    # -- draining -----------------------------------------------------------
    def _eligible(self) -> List[WBEntry]:
        """Entries allowed to issue right now (out-of-order policy)."""
        pending = [e for e in self._entries if not e.issued]
        if not pending:
            return []
        if self.require_verified:
            pending = [e for e in pending if e.verified]
            if not pending:
                return []
        oldest_gen = min(e.generation for e in self._entries)
        eligible = [e for e in pending if e.generation == oldest_gen]
        # Same-word program order: only the oldest entry per word may
        # issue (younger same-word stores coalesce behind it), and a
        # word with an issued-but-unperformed store blocks its younger
        # stores entirely.
        busy_words = {word_of(e.addr) for e in self._entries if e.issued}
        seen: Dict[int, WBEntry] = {}
        out = []
        for e in eligible:
            w = word_of(e.addr)
            if w in busy_words:
                continue
            if w not in seen:
                seen[w] = e
                out.append(e)
        return out

    def drain(self, may_issue: Callable[[WBEntry], bool]) -> None:
        """Issue eligible entries whose external constraints pass.

        ``may_issue`` lets the core veto drains that would violate the
        ordering table (e.g. TSO's Load->Store constraint while an older
        load has not performed).
        """
        if self.in_order:
            # Head-only policy with max_outstanding == 1: the general
            # path's list builds collapse to flag checks on the head.
            if self._outstanding:
                return
            entries = self._entries
            if not entries:
                return
            head = entries[0]
            if (
                head.issued
                or (self.require_verified and not head.verified)
                or not may_issue(head)
            ):
                return
            head.issued = True
            self._outstanding += 1
            self._values[self._h_issues] += 1
            self._issue(head, lambda old, e=head: self._performed(e, old))
            return
        while self._outstanding < self.max_outstanding:
            if not self._entries:
                return
            candidates = [e for e in self._eligible() if may_issue(e)]
            if not candidates:
                return

            # Issue-policy: favour the block with the most queued
            # stores (maximises coalescing), oldest entry first.
            def block_weight(e: WBEntry) -> int:
                return sum(
                    1
                    for x in self._entries
                    if block_of(x.addr) == block_of(e.addr)
                )

            entry = max(candidates, key=lambda e: (block_weight(e), -e.seq))
            entry.issued = True
            self._outstanding += 1
            self._values[self._h_issues] += 1
            self._issue(entry, lambda old, e=entry: self._performed(e, old))

    def _performed(self, entry: WBEntry, old_value: int) -> None:
        self._outstanding -= 1
        self._entries.remove(entry)
        self._values[self._h_performs] += 1
        self._on_perform(entry, old_value)
        # After on_perform so waiters re-check against the fully
        # updated state (checker + ROB bookkeeping included).  Covers
        # the retired-store case _mark_performed never sees.
        if self.wakes is not None:
            self.wakes.notify()

    # -- fault injection ----------------------------------------------------
    def corrupt_entry(self, index: int, addr_xor: int = 0, value_xor: int = 0) -> bool:
        """Flip bits in a buffered store (paper's WB data/address faults)."""
        if not 0 <= index < len(self._entries):
            return False
        entry = self._entries[index]
        entry.addr ^= addr_xor
        entry.value ^= value_xor
        self.stats.incr(f"{self._stat}.corruptions")
        return True

    def illegal_reorder(self) -> bool:
        """Swap the two oldest entries (paper's WB reordering fault).

        Under TSO this silently breaks the in-order drain contract —
        exactly the class of error DVMC's AR checker must catch.
        """
        pending = [i for i, e in enumerate(self._entries) if not e.issued]
        if len(pending) < 2:
            return False
        i, j = pending[0], pending[1]
        self._entries[i], self._entries[j] = self._entries[j], self._entries[i]
        # Make the swap effective under every policy: merge generations.
        gen = min(self._entries[i].generation, self._entries[j].generation)
        self._entries[i].generation = gen
        self._entries[j].generation = gen
        self.stats.incr(f"{self._stat}.corruptions")
        return True
