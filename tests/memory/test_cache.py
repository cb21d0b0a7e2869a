"""Set-associative cache array: LRU, install/evict, pinning, ports."""

import pytest

from repro.common.errors import ConfigError, SimulationError
from repro.common.stats import StatsRegistry
from repro.common.types import BLOCK_SIZE, WORDS_PER_BLOCK, CoherenceState
from repro.config import CacheConfig
from repro.memory.cache import CacheArray


def make_cache(size_bytes=1024, assoc=2, ports=2):
    config = CacheConfig(size_bytes=size_bytes, associativity=assoc, ports=ports)
    return CacheArray("l1.test", config, StatsRegistry())


def block(value=0):
    return [value] * WORDS_PER_BLOCK


def same_set_addrs(cache, count):
    """Addresses mapping to set 0, enough to overflow it."""
    stride = cache.num_sets * 64
    return [i * stride for i in range(count)]


def test_sets_hold_whole_blocks():
    config = CacheConfig(size_bytes=1024, associativity=2)
    assert config.num_sets() == 1024 // (BLOCK_SIZE * 2) == 8
    assert make_cache().num_sets == 8
    with pytest.raises(ConfigError, match="BLOCK_SIZE"):
        CacheConfig(size_bytes=1000, associativity=2).validate()


class TestInstallAndLookup:
    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0x100) is None
        cache.install(0x100, CoherenceState.S, block(5))
        line = cache.lookup(0x104)  # same block
        assert line is not None
        assert line.read_word(0x104) == 5

    def test_invalid_lines_do_not_hit(self):
        cache = make_cache()
        line = cache.install(0x100, CoherenceState.S, block())
        line.state = CoherenceState.I
        assert cache.lookup(0x100) is None

    def test_install_rejects_bad_block(self):
        cache = make_cache()
        with pytest.raises(SimulationError):
            cache.install(0, CoherenceState.S, [0])

    def test_write_word(self):
        cache = make_cache()
        line = cache.install(0x40, CoherenceState.M, block())
        line.write_word(0x44, 0x99)
        assert line.read_word(0x44) == 0x99
        assert line.is_dirty()


class TestVictimSelection:
    def test_no_victim_when_way_free(self):
        cache = make_cache(assoc=2)
        a0, a1, _ = same_set_addrs(cache, 3)
        cache.install(a0, CoherenceState.S, block())
        assert cache.victim_for(a1) is None

    def test_lru_victim(self):
        cache = make_cache(assoc=2)
        a0, a1, a2 = same_set_addrs(cache, 3)
        cache.install(a0, CoherenceState.S, block())
        cache.install(a1, CoherenceState.S, block())
        cache.lookup(a0)  # a0 most recently used
        victim = cache.victim_for(a2)
        assert victim.addr == a1

    def test_pinned_lines_skipped(self):
        cache = make_cache(assoc=2)
        a0, a1, a2 = same_set_addrs(cache, 3)
        cache.install(a0, CoherenceState.S, block())
        cache.install(a1, CoherenceState.S, block())
        cache.lookup(a1)
        victim = cache.victim_for(a2, pinned=lambda addr: addr == a0)
        assert victim.addr == a1

    def test_all_pinned_raises(self):
        cache = make_cache(assoc=2)
        a0, a1, a2 = same_set_addrs(cache, 3)
        cache.install(a0, CoherenceState.S, block())
        cache.install(a1, CoherenceState.S, block())
        with pytest.raises(SimulationError):
            cache.victim_for(a2, pinned=lambda addr: True)

    def test_existing_block_needs_no_victim(self):
        cache = make_cache(assoc=1)
        a0, a1 = same_set_addrs(cache, 2)
        cache.install(a0, CoherenceState.S, block())
        assert cache.victim_for(a0) is None

    def test_full_set_install_raises(self):
        cache = make_cache(assoc=1)
        a0, a1 = same_set_addrs(cache, 2)
        cache.install(a0, CoherenceState.S, block())
        with pytest.raises(SimulationError):
            cache.install(a1, CoherenceState.S, block())

    def test_remove_frees_way(self):
        cache = make_cache(assoc=1)
        a0, a1 = same_set_addrs(cache, 2)
        cache.install(a0, CoherenceState.S, block())
        cache.remove(a0)
        cache.install(a1, CoherenceState.S, block())
        assert cache.lookup(a1) is not None


class TestPortModel:
    def test_ports_per_cycle(self):
        cache = make_cache(ports=2)
        assert cache.next_access_delay(100) == 0
        assert cache.next_access_delay(100) == 0
        assert cache.next_access_delay(100) == 1  # third access same cycle
        assert cache.next_access_delay(101) == 0  # new cycle resets

    def test_overflow_pushes_further(self):
        cache = make_cache(ports=1)
        assert cache.next_access_delay(5) == 0
        assert cache.next_access_delay(5) == 1
        assert cache.next_access_delay(5) == 2


class TestLines:
    def test_lines_enumerates_valid_only(self):
        cache = make_cache()
        cache.install(0x40, CoherenceState.S, block())
        line = cache.install(0x80, CoherenceState.M, block())
        dead = cache.install(0xC0, CoherenceState.S, block())
        dead.state = CoherenceState.I
        addrs = {l.addr for l in cache.lines()}
        assert addrs == {0x40, 0x80}
