"""Statistics registry."""

import importlib

import pytest
from hypothesis import given, strategies as st

from repro.common.stats import StatsRegistry, mean_stddev


class TestCounters:
    def test_incr_and_read(self):
        s = StatsRegistry()
        s.incr("a.b")
        s.incr("a.b", 4)
        assert s.counter("a.b") == 5
        assert s.counter("missing") == 0

    def test_prefix_sum(self):
        s = StatsRegistry()
        s.incr("l1.0.misses", 3)
        s.incr("l1.1.misses", 4)
        s.incr("l2.0.misses", 100)
        assert s.sum("l1.") == 7

    def test_max_over(self):
        s = StatsRegistry()
        s.incr("net.link.0-1", 10)
        s.incr("net.link.1-2", 30)
        key, value = s.max_over("net.link.")
        assert key == "net.link.1-2" and value == 30

    def test_max_over_empty(self):
        assert StatsRegistry().max_over("nothing") == ("", 0)

    def test_counters_with_prefix(self):
        s = StatsRegistry()
        s.incr("x.a")
        s.incr("y.b")
        assert list(s.counters_with_prefix("x.")) == ["x.a"]


class TestOnePlane:
    """Every key is one slot of ``values``: ``incr`` and preresolved
    handles count into the same place, and every read sees it."""

    def test_handle_and_incr_share_a_slot(self):
        s = StatsRegistry()
        h = s.handle("l1.0.accesses")
        s.values[h] += 3
        s.incr("l1.0.accesses", 2)
        s.incr("l1.1.accesses")
        assert s.handle("l1.0.accesses") == h
        assert s.values[h] == 5
        assert s.counter("l1.0.accesses") == 5
        assert s.counters() == {"l1.0.accesses": 5, "l1.1.accesses": 1}
        assert s.sum("l1.") == 6
        assert len(s.values) == 2

    def test_unbumped_slot_is_invisible(self):
        s = StatsRegistry()
        s.handle("net.data.link.0-1")
        h = s.handle("net.data.link.1-2")
        s.incr("core.0.retired")
        assert s.counter("net.data.link.0-1") == 0
        assert s.counters() == {"core.0.retired": 1}
        assert s.sum("net.") == 0
        assert s.max_over("net.") == ("", 0)
        assert s.counters_with_prefix("net.") == {}
        s.values[h] += 7
        assert s.counters_with_prefix("net.") == {"net.data.link.1-2": 7}
        assert s.max_over("net.") == ("net.data.link.1-2", 7)


RETIRED_SURFACE = {
    "repro.obs.hub": ("repro.obs.hub", None, None),
    "repro.obs.MetricsHub": ("repro.obs", None, "MetricsHub"),
    "repro.obs.NULL_HUB": ("repro.obs", None, "NULL_HUB"),
    "StatsRegistry.record": ("repro.common.stats", "StatsRegistry", "record"),
    "StatsRegistry.histogram": ("repro.common.stats", "StatsRegistry", "histogram"),
    "StatsRegistry.as_dict": ("repro.common.stats", "StatsRegistry", "as_dict"),
    "repro.common.Histogram": ("repro.common", None, "Histogram"),
    "FuzzCounters": ("repro.obs.fuzz_counters", None, "FuzzCounters"),
    "RunMetrics.counter_sum": ("repro.parallel", "RunMetrics", "counter_sum"),
    "last_run_obs": ("repro.parallel", None, "last_run_obs"),
}


@pytest.mark.parametrize("name", RETIRED_SURFACE)
def test_retired_counter_surface_is_gone(name):
    """One counter store: the metrics hub, the histogram plane and the
    pool's batch record are gone, not merely unused."""
    module, owner, attr = RETIRED_SURFACE[name]
    if attr is None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)
        return
    obj = importlib.import_module(module)
    if owner is not None:
        obj = getattr(obj, owner)
    assert not hasattr(obj, attr)


class TestMeanStddev:
    def test_empty(self):
        assert mean_stddev([]) == (0.0, 0.0)

    def test_single(self):
        assert mean_stddev([5]) == (5.0, 0.0)

    def test_known_values(self):
        mean, std = mean_stddev([2, 4, 4, 4, 5, 5, 7, 9])
        assert mean == 5.0
        assert round(std, 4) == 2.1381  # sample stddev

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2, max_size=50))
    def test_stddev_nonnegative(self, values):
        mean, std = mean_stddev(values)
        assert std >= 0
        assert min(values) <= mean <= max(values)

    def test_identical_values_mean_in_range(self):
        # Regression: naive sum put the mean of identical values a few
        # ULPs outside [min, max].
        mean, std = mean_stddev([0.1, 0.1, 0.1])
        assert mean == 0.1
        assert std >= 0
