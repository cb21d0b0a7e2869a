"""Logical time bases for the Cache Coherence checker.

The checker needs a causality-respecting time base (paper Section 4.3,
"Logical Time").  The paper picks, for ease of implementation:

* **snooping**: the count of coherence requests ordered so far (the
  ordered address network totally orders requests and shows each one to
  every controller at once, so every controller's count is this one
  count);
* **directory**: a loosely synchronised physical clock distributed to
  every controller; causality holds as long as inter-controller skew is
  below the minimum communication latency.

Timestamps stored in CET/MET entries are ``DVMCConfig.timestamp_bits``
(paper: 16) wide; the wraparound-scrubbing machinery lives in the
coherence checker, which scrubs an epoch once it has been open for half
that range.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from .errors import ConfigError
from .events import Scheduler


class LogicalTimeBase(ABC):
    """Per-node source of causality-respecting logical timestamps."""

    @abstractmethod
    def now(self, node: int) -> int:
        """Full-width current logical time at ``node``."""


class SnoopingLogicalTime(LogicalTimeBase):
    """Counts the coherence requests the address network has ordered.

    The snoop bus calls :meth:`tick` once per ordered request, before
    any controller handles it.  Every controller sees every request at
    the same delivery, so one count is every node's logical time.
    """

    def __init__(self) -> None:
        self._count = 0

    def now(self, node: int) -> int:
        return self._count

    def tick(self) -> None:
        self._count += 1


class DirectoryLogicalTime(LogicalTimeBase):
    """Loosely synchronised physical clock for directory systems.

    Each node sees ``(cycle + skew[node]) // period``.  Causality holds
    when ``max skew difference < min network latency`` (paper cites
    [26]); :class:`~repro.system.builder.SystemBuilder` validates this
    against the configured network.
    """

    def __init__(self, scheduler: Scheduler, skews: list, period: int = 10):
        if period <= 0:
            raise ConfigError("clock period must be positive")
        if any(s < 0 for s in skews):
            raise ConfigError("skews must be non-negative")
        self._scheduler = scheduler
        self._skews = list(skews)
        self.period = period

    @property
    def max_skew_delta(self) -> int:
        """Largest pairwise skew difference, in cycles."""
        return max(self._skews) - min(self._skews) if self._skews else 0

    def now(self, node: int) -> int:
        return (self._scheduler.now + self._skews[node]) // self.period
