"""Logical time bases (paper Section 4.3, "Logical Time")."""

import pytest

from repro.common.errors import ConfigError
from repro.common.events import Scheduler
from repro.common.logical_time import DirectoryLogicalTime, SnoopingLogicalTime


class TestSnoopingLogicalTime:
    def test_one_count_is_every_nodes_time(self):
        """Every controller sees each ordered request at the same
        delivery, so one count of ordered requests is every node's
        logical time."""
        lt = SnoopingLogicalTime()
        assert lt.now(0) == lt.now(1) == 0
        lt.tick()
        lt.tick()
        assert [lt.now(n) for n in range(3)] == [2, 2, 2]


class TestDirectoryLogicalTime:
    def test_advances_with_physical_time(self):
        sched = Scheduler()
        lt = DirectoryLogicalTime(sched, skews=[0, 3], period=10)
        assert lt.now(0) == 0
        sched.post(25, lambda: None)
        sched.run()
        assert lt.now(0) == 2  # 25 // 10
        assert lt.now(1) == 2  # (25+3) // 10

    def test_skew_shifts_reading(self):
        sched = Scheduler()
        lt = DirectoryLogicalTime(sched, skews=[0, 9], period=10)
        sched.post(5, lambda: None)
        sched.run()
        assert lt.now(0) == 0
        assert lt.now(1) == 1  # (5+9)//10

    def test_max_skew_delta(self):
        sched = Scheduler()
        lt = DirectoryLogicalTime(sched, skews=[2, 7, 4], period=10)
        assert lt.max_skew_delta == 5

    def test_causality_with_bounded_skew(self):
        """If event A at node a causes event B at node b at least
        ``min_latency`` cycles later, and skews differ by less than
        ``min_latency``, then lt(A) <= lt(B)."""
        sched = Scheduler()
        min_latency = 10
        lt = DirectoryLogicalTime(sched, skews=[0, 9], period=7)
        for t_a in range(0, 100, 13):
            t_b = t_a + min_latency
            lt_a = (t_a + 0) // 7
            lt_b = (t_b + 9) // 7
            assert lt_a <= lt_b

    def test_invalid_parameters(self):
        sched = Scheduler()
        with pytest.raises(ConfigError):
            DirectoryLogicalTime(sched, skews=[0], period=0)
        with pytest.raises(ConfigError):
            DirectoryLogicalTime(sched, skews=[-1], period=10)
