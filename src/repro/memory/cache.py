"""Set-associative cache array with LRU replacement and port modelling.

This is the storage half of a cache; coherence behaviour lives in
:mod:`repro.coherence.cache_controller`.  Port accounting matters for
DVMC: load replay in the verification stage shares L1 ports with
regular execution (paper Section 6.2.2), so the array hands out access
slots.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.common.errors import SimulationError
from repro.common.stats import StatsRegistry
from repro.common.types import (
    BLOCK_SIZE,
    WORD_MASK,
    WORDS_PER_BLOCK,
    CoherenceState,
    block_of,
    word_index,
)
from repro.config import CacheConfig


class CacheLine:
    """One cache line: coherence state + data + LRU bookkeeping."""

    __slots__ = ("addr", "state", "data", "last_used")

    def __init__(self, addr: int, state: CoherenceState, data: List[int]):
        self.addr = addr
        self.state = state
        self.data = list(data)
        self.last_used = 0

    def read_word(self, addr: int) -> int:
        return self.data[word_index(addr)]

    def write_word(self, addr: int, value: int) -> None:
        self.data[word_index(addr)] = value & WORD_MASK

    def is_dirty(self) -> bool:
        return self.state in (CoherenceState.M, CoherenceState.O)


class CacheArray:
    """Set-associative array of :class:`CacheLine`.

    The array never makes coherence decisions; it stores lines, picks
    LRU victims, and models port contention.
    """

    def __init__(
        self,
        name: str,
        config: CacheConfig,
        stats: StatsRegistry,
    ):
        self.name = name
        self.config = config
        self.num_sets = config.num_sets()
        # Sets are allocated lazily (None until first install): short
        # runs touch a small fraction of the index space, and array
        # construction is on the per-run path of every experiment
        # sweep.
        self._sets: List[Optional[Dict[int, CacheLine]]] = (
            [None] * self.num_sets
        )
        # Fast set-index arithmetic: when the set count is a power of
        # two, like the block size, (addr >> shift) & mask beats the
        # divide/modulo pair on the per-access path.
        self._block_mask = ~(BLOCK_SIZE - 1)
        self._shift = BLOCK_SIZE.bit_length() - 1
        self._set_mask = (
            self.num_sets - 1
            if self.num_sets & (self.num_sets - 1) == 0
            else None
        )
        self._stats = stats
        self._use_clock = 0
        # Port model: (cycle, accesses already granted in that cycle).
        self._port_cycle = -1
        self._port_used = 0

    def _set_index(self, addr: int) -> int:
        if self._set_mask is not None:
            return (addr >> self._shift) & self._set_mask
        return (block_of(addr) // BLOCK_SIZE) % self.num_sets

    # Lookup / insert ------------------------------------------------------
    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Line holding ``addr`` in any valid state, updating LRU."""
        base = addr & self._block_mask
        # _set_index inlined (power-of-two fast path): lookup/peek run
        # once per access and the call overhead is measurable.
        set_mask = self._set_mask
        cache_set = self._sets[
            (base >> self._shift) & set_mask
            if set_mask is not None
            else self._set_index(base)
        ]
        line = cache_set.get(base) if cache_set is not None else None
        if line is not None and line.state is not CoherenceState.I:
            self._use_clock += 1
            line.last_used = self._use_clock
            return line
        return None

    def touch(self, line: CacheLine) -> None:
        """Refresh LRU recency for a line already in hand.

        Equivalent to the LRU side-effect of :meth:`lookup` without
        re-running the set walk; callers must pass a line this array
        returned from a prior lookup/peek.
        """
        self._use_clock += 1
        line.last_used = self._use_clock

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Like :meth:`lookup` but without touching LRU state."""
        base = addr & self._block_mask
        set_mask = self._set_mask
        cache_set = self._sets[
            (base >> self._shift) & set_mask
            if set_mask is not None
            else self._set_index(base)
        ]
        line = cache_set.get(base) if cache_set is not None else None
        if line is not None and line.state is not CoherenceState.I:
            return line
        return None

    def victim_for(self, addr: int, pinned=None) -> Optional[CacheLine]:
        """LRU line that must be evicted to make room for ``addr``.

        Returns None when the set has a free way (or already holds the
        block).  ``pinned`` is an optional predicate over block
        addresses; pinned lines (e.g. blocks with an outstanding
        coherence transaction) are never chosen.
        """
        index = self._set_index(addr)
        cache_set = self._sets[index]
        if cache_set is None:
            return None  # untouched set: a free way by definition
        base = block_of(addr)
        if base in cache_set:
            return None
        live = [
            line
            for line in cache_set.values()
            if line.state is not CoherenceState.I
        ]
        if len(live) < self.config.associativity:
            return None
        if pinned is not None:
            live = [line for line in live if not pinned(line.addr)]
            if not live:
                raise SimulationError(
                    f"{self.name}: set {index} full of pinned lines"
                )
        return min(live, key=lambda line: line.last_used)

    def install(self, addr: int, state: CoherenceState, data: List[int]) -> CacheLine:
        """Place a block; caller must have evicted the victim already."""
        if len(data) != WORDS_PER_BLOCK:
            raise SimulationError("bad block size on install")
        index = self._set_index(addr)
        cache_set = self._sets[index]
        if cache_set is None:
            cache_set = self._sets[index] = {}
        base = block_of(addr)
        # Drop stale invalid entries beyond associativity.
        invalid = [a for a, l in cache_set.items() if l.state is CoherenceState.I]
        for a in invalid:
            del cache_set[a]
        live = [l for l in cache_set.values() if l.state is not CoherenceState.I]
        if base not in cache_set and len(live) >= self.config.associativity:
            raise SimulationError(
                f"{self.name}: set {index} full installing 0x{base:x}"
            )
        line = CacheLine(base, state, data)
        self._use_clock += 1
        line.last_used = self._use_clock
        cache_set[base] = line
        return line

    def remove(self, addr: int) -> Optional[CacheLine]:
        """Remove and return the line for ``addr``, if present."""
        cache_set = self._sets[self._set_index(addr)]
        if cache_set is None:
            return None
        return cache_set.pop(block_of(addr), None)

    def lines(self) -> List[CacheLine]:
        """All valid lines (for checkpointing and fault targeting)."""
        out = []
        for cache_set in self._sets:
            if cache_set:
                out.extend(
                    l
                    for l in cache_set.values()
                    if l.state is not CoherenceState.I
                )
        return out

    def obs_snapshot(self) -> dict:
        """Observable interface: hit/miss/replay view of this array.

        Access counters are incremented by the owning coherence
        controller under this array's name prefix; the array itself
        contributes occupancy and set-allocation state, so the cache
        layer is fully readable from one place.
        """
        stats = self._stats
        accesses = stats.counter(f"{self.name}.accesses")
        misses = stats.counter(f"{self.name}.misses")
        replay_accesses = stats.counter(f"{self.name}.replay_accesses")
        replay_misses = stats.counter(f"{self.name}.replay_misses")
        lines = self.lines()
        return {
            "accesses": accesses,
            "misses": misses,
            "hits": accesses - misses,
            "hit_rate": (accesses - misses) / accesses if accesses else 0.0,
            "replay_accesses": replay_accesses,
            "replay_misses": replay_misses,
            "evictions": stats.counter(f"{self.name}.evictions"),
            "writebacks": stats.counter(f"{self.name}.writebacks"),
            "lines_valid": len(lines),
            "lines_dirty": sum(1 for line in lines if line.is_dirty()),
            "sets_allocated": sum(1 for s in self._sets if s is not None),
            "num_sets": self.num_sets,
        }

    # Port model -----------------------------------------------------------
    def next_access_delay(self, now: int) -> int:
        """Extra cycles until a port is free, and reserve that slot.

        With ``ports`` accesses per cycle, the (ports+1)-th access in a
        cycle is pushed to the next cycle, and so on.
        """
        if now > self._port_cycle:
            self._port_cycle = now
            self._port_used = 1
            return 0
        # now == self._port_cycle (time never goes backwards)
        if self._port_used < self.config.ports:
            self._port_used += 1
            return 0
        extra = self._port_used // self.config.ports
        self._port_used += 1
        return extra
