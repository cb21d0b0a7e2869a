"""Lightweight statistics collection.

Components count named events on a shared :class:`StatsRegistry`.
Benchmarks read the registry to regenerate the paper's tables and
figures (runtime, replay misses, link utilisation), and the
observability exporters publish it as is.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple


class StatsRegistry:
    """Dotted-key counter store: one int slot per key.

    Keys are dotted paths, conventionally ``component.node.metric``
    (e.g. ``"l1.3.replay_misses"``); :meth:`sum` aggregates over key
    prefixes.  Every key owns one slot of the flat :attr:`values` list.
    Cold sites count through :meth:`incr`; hot sites preresolve a key
    once with :meth:`handle` and bump ``registry.values[h] += n`` with
    no hashing or string work at all.  A slot still at 0 is invisible
    to the read APIs, so a key is reported iff it was incremented.
    """

    __slots__ = ("values", "_handles")

    def __init__(self) -> None:
        #: One counter slot per key; hot sites index directly.
        self.values: List[int] = []
        #: Key -> slot index, in slot order (keys are never removed).
        self._handles: Dict[str, int] = {}

    # Counters -----------------------------------------------------------
    def incr(self, key: str, amount: int = 1) -> None:
        """Increment counter ``key`` by ``amount``.

        Hot path: called once or more per simulated event.  The
        try/except form makes no call on the existing-key path (free
        under CPython 3.11's zero-cost exceptions); a new key falls
        back to :meth:`handle`.
        """
        try:
            self.values[self._handles[key]] += amount
        except KeyError:
            self.values[self.handle(key)] += amount

    def handle(self, key: str) -> int:
        """Preresolve ``key`` to an int index into :attr:`values`.

        Idempotent: the same key always maps to the same slot.  The
        slot starts at 0 and is invisible to the read APIs until the
        first increment lands.
        """
        idx = self._handles.get(key)
        if idx is None:
            idx = self._handles[key] = len(self.values)
            self.values.append(0)
        return idx

    def counter(self, key: str) -> int:
        idx = self._handles.get(key)
        return 0 if idx is None else self.values[idx]

    def sum(self, prefix: str) -> int:
        """Sum of all counters whose key starts with ``prefix``."""
        return sum(v for k, v in self.counters().items() if k.startswith(prefix))

    def max_over(self, prefix: str) -> Tuple[str, int]:
        """(key, value) of the largest counter under ``prefix``.

        Used for Figure 7's "mean bandwidth on the highest loaded link".
        Returns ``("", 0)`` when no counter matches.
        """
        best_key, best = "", 0
        for k, v in self.counters().items():
            if k.startswith(prefix) and v > best:
                best_key, best = k, v
        return best_key, best

    # Reporting ----------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """Every nonzero counter (plain data, safe to pickle)."""
        # ``_handles`` lists its keys in slot order, so the two zip.
        return {k: v for k, v in zip(self._handles, self.values) if v}

    def counters_with_prefix(self, prefix: str) -> Dict[str, int]:
        return {k: v for k, v in self.counters().items() if k.startswith(prefix)}


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
