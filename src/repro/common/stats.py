"""Lightweight statistics collection.

Components register named counters and histograms on a shared
:class:`StatsRegistry`.  Benchmarks read the registry to regenerate the
paper's tables and figures (runtime, replay misses, link utilisation).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple


class Histogram:
    """Streaming histogram tracking count/sum/min/max and samples."""

    __slots__ = ("count", "total", "min", "max", "_sq")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self._sq = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        self._sq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        if not self.count:
            return 0.0
        # Clamp: the running sum can drift a few ULPs outside the
        # observed range (e.g. three records of 0.1 average to
        # 0.10000000000000002), which breaks mean ∈ [min, max].
        mean = self.total / self.count
        if mean < self.min:
            return self.min
        if mean > self.max:
            return self.max
        return mean

    @property
    def stddev(self) -> float:
        if self.count < 2:
            return 0.0
        mean = self.mean
        var = max(0.0, self._sq / self.count - mean * mean)
        return math.sqrt(var)


class StatsRegistry:
    """Hierarchical counter/histogram store.

    Keys are dotted paths, conventionally ``component.node.metric``
    (e.g. ``"l1.3.replay_misses"``); :meth:`sum` aggregates over glob-like
    prefixes.

    Two counter planes share the same key space:

    * the string-keyed dict behind :meth:`incr` (cold/compat path);
    * preresolved **handles** — :meth:`handle` maps a key to an index
      into the flat :attr:`values` list once, and hot sites bump
      ``registry.values[h] += n`` with no hashing or string work at
      all.  Handle-backed keys surface through every read API
      (:meth:`counter`, :meth:`sum`, :meth:`counters`, ...) only when
      nonzero, preserving the old "a key exists iff it was
      incremented" reporting contract byte for byte.
    """

    __slots__ = ("_counters", "_histograms", "values", "_handles", "_handle_keys")

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        #: Flat handle-backed counter slots; hot sites index directly.
        self.values: List[int] = []
        self._handles: Dict[str, int] = {}
        self._handle_keys: List[str] = []

    # Counters -----------------------------------------------------------
    def incr(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``.

        Hot path: called once or more per simulated event.  The
        try/except form is free on the existing-key path under
        CPython 3.11's zero-cost exceptions, unlike a defaultdict
        (factory machinery) or an ``in`` pre-check (extra hash).
        """
        try:
            self._counters[key] += amount
        except KeyError:
            self._counters[key] = amount

    def handle(self, key: str) -> int:
        """Preresolve ``key`` to an int index into :attr:`values`.

        Idempotent: the same key always maps to the same slot.  The
        slot starts at 0 and is invisible to the read APIs until the
        first increment lands.
        """
        idx = self._handles.get(key)
        if idx is None:
            idx = self._handles[key] = len(self._handle_keys)
            self._handle_keys.append(key)
            self.values.append(0)
        return idx

    def counter(self, key: str) -> int:
        total = self._counters.get(key, 0)
        idx = self._handles.get(key)
        if idx is not None:
            total += self.values[idx]
        return total

    def _merged(self) -> Dict[str, int]:
        """String + handle planes folded together (nonzero handles only)."""
        out = dict(self._counters)
        values = self.values
        for key, idx in self._handles.items():
            v = values[idx]
            if v:
                out[key] = out.get(key, 0) + v
        return out

    def sum(self, prefix: str) -> int:
        """Sum of all counters whose key starts with ``prefix``."""
        return sum(
            v for k, v in self._merged().items() if k.startswith(prefix)
        )

    def max_over(self, prefix: str) -> Tuple[str, int]:
        """(key, value) of the largest counter under ``prefix``.

        Used for Figure 7's "mean bandwidth on the highest loaded link".
        Returns ``("", 0)`` when no counter matches.
        """
        best_key, best = "", 0
        for k, v in self._merged().items():
            if k.startswith(prefix) and v > best:
                best_key, best = k, v
        return best_key, best

    # Histograms ---------------------------------------------------------
    def record(self, key: str, value: float) -> None:
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        hist.record(value)

    def histogram(self, key: str) -> Histogram:
        hist = self._histograms.get(key)
        if hist is None:
            hist = self._histograms[key] = Histogram()
        return hist

    # Reporting ----------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Snapshot of every counter (plain data, safe to pickle)."""
        return self._merged()

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {
            k: v for k, v in self._merged().items() if k.startswith(prefix)
        }

    def as_dict(self) -> Dict[str, float]:
        """Flatten everything into a plain dict (counters + histogram means)."""
        out: Dict[str, float] = self._merged()
        for key, hist in self._histograms.items():
            out[f"{key}.mean"] = hist.mean
            out[f"{key}.count"] = hist.count
        return out


def mean_stddev(values: Iterable[float]) -> Tuple[float, float]:
    """Mean and sample standard deviation of ``values``.

    The paper reports mean and one standard deviation across ten
    perturbed runs; experiment harnesses use this helper for the same.
    """
    vals: List[float] = list(values)
    if not vals:
        return 0.0, 0.0
    # fsum + clamp: naive summation can put the mean of identical
    # values a few ULPs outside [min, max].
    mean = math.fsum(vals) / len(vals)
    lo, hi = min(vals), max(vals)
    if mean < lo:
        mean = lo
    elif mean > hi:
        mean = hi
    if len(vals) < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in vals) / (len(vals) - 1)
    return mean, math.sqrt(var)
