"""Property-based tests on cache array invariants."""

from hypothesis import given, settings, strategies as st

from repro.common.stats import StatsRegistry
from repro.common.types import WORDS_PER_BLOCK, CoherenceState, block_of
from repro.config import CacheConfig
from repro.memory.cache import CacheArray


def fresh_cache():
    return CacheArray(
        "prop", CacheConfig(size_bytes=2048, associativity=2), StatsRegistry()
    )


@st.composite
def access_sequence(draw):
    """A sequence of (op, block_addr) operations over a small footprint."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["install", "lookup", "remove"]),
                st.integers(min_value=0, max_value=31),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return [(op, index * 64) for op, index in ops]


class TestInvariants:
    @given(access_sequence())
    @settings(max_examples=100, deadline=None)
    def test_associativity_never_exceeded(self, sequence):
        """No set ever holds more valid lines than its associativity,
        provided callers evict victims before installing."""
        cache = fresh_cache()
        for op, addr in sequence:
            if op == "install":
                victim = cache.victim_for(addr)
                if victim is not None:
                    cache.remove(victim.addr)
                cache.install(addr, CoherenceState.S, [0] * WORDS_PER_BLOCK)
            elif op == "lookup":
                cache.lookup(addr)
            else:
                cache.remove(addr)
            for cache_set in cache._sets:
                if cache_set is None:  # lazily allocated: never touched
                    continue
                live = [
                    l
                    for l in cache_set.values()
                    if l.state is not CoherenceState.I
                ]
                assert len(live) <= cache.config.associativity

    @given(access_sequence())
    @settings(max_examples=60, deadline=None)
    def test_lookup_consistency(self, sequence):
        """A block is found iff it was installed and not removed since."""
        cache = fresh_cache()
        resident = set()
        for op, addr in sequence:
            if op == "install":
                victim = cache.victim_for(addr)
                if victim is not None:
                    cache.remove(victim.addr)
                    resident.discard(victim.addr)
                cache.install(addr, CoherenceState.S, [0] * WORDS_PER_BLOCK)
                resident.add(block_of(addr))
            elif op == "remove":
                cache.remove(addr)
                resident.discard(block_of(addr))
            else:
                found = cache.lookup(addr) is not None
                assert found == (block_of(addr) in resident)
        assert {l.addr for l in cache.lines()} == resident
