"""Metrics registry: counters, gauges and histograms for one run.

The hub is the push half of the observability plane (see
:mod:`repro.obs`): components that produce *new* measurements — the
scheduler's bucket occupancy, an OpLog's drain depth, the MET's bank
probes — register named instruments and update them while the
simulation runs.  Everything already counted in the simulation-visible
:class:`~repro.common.stats.StatsRegistry` stays there (those counters
are part of the deterministic run output); the exporter pulls both
sides together at snapshot time.

Cost model: when observability is disabled (the default) components
hold the module-level no-op instruments below, so the hot paths pay at
most a single attribute test.  The real instruments are plain
``__slots__`` objects whose update is one attribute add.  The ledger's
exact ``layer.obs.calls`` count gate keeps the disabled path's cost a
fixed number of calls per machine built.
"""

from __future__ import annotations

import math
from typing import Dict


class Counter:
    """Monotonic named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time named value (last write wins)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class ObsHistogram:
    """Streaming histogram: count / sum / min / max (no samples kept)."""

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "mean": self.mean,
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram.

    A single instance stands in for every instrument of a disabled hub,
    so `hub.counter(a) is hub.counter(b)` — identity the unit tests pin
    down, and the reason a disabled hub allocates nothing per call.
    """

    __slots__ = ()

    name = "null"
    value = 0
    count = 0
    total = 0.0
    mean = 0.0

    def add(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def record(self, value: float) -> None:
        pass

    def as_dict(self) -> Dict[str, float]:
        return {"count": 0, "sum": 0.0, "min": 0.0, "max": 0.0, "mean": 0.0}


NULL_INSTRUMENT = _NullInstrument()


class MetricsHub:
    """Registry of named instruments for one system/run."""

    enabled = True

    __slots__ = ("_counters", "_gauges", "_histograms")

    def __init__(self) -> None:
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, ObsHistogram] = {}

    def counter(self, name: str) -> Counter:
        inst = self._counters.get(name)
        if inst is None:
            inst = self._counters[name] = Counter(name)
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self._gauges.get(name)
        if inst is None:
            inst = self._gauges[name] = Gauge(name)
        return inst

    def histogram(self, name: str) -> ObsHistogram:
        inst = self._histograms.get(name)
        if inst is None:
            inst = self._histograms[name] = ObsHistogram(name)
        return inst

    def snapshot(self) -> Dict[str, Dict]:
        """Plain-data view of every instrument (JSON-safe)."""
        return {
            "counters": {k: c.value for k, c in sorted(self._counters.items())},
            "gauges": {k: g.value for k, g in sorted(self._gauges.items())},
            "histograms": {
                k: h.as_dict() for k, h in sorted(self._histograms.items())
            },
        }


class NullHub:
    """Disabled-mode hub: every instrument is the shared no-op."""

    enabled = False

    __slots__ = ()

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> Dict[str, Dict]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_HUB = NullHub()
