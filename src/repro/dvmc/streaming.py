"""Streaming verification plane: the Allowable Reordering checker's log.

The Allowable Reordering checker is a pure function from the (op type,
seq, mask, cycle) stream to violation reports and max-counter updates:
it feeds nothing back into the simulation, so its work can leave the
per-event path.  This module provides the log substrate for that:

* Cores append ints-only records into an ``array``-backed
  :class:`OpLog` (no per-operation object allocation, no dict churn)
  that starts small and grows geometrically up to its cap, so a short
  run never pays for a full-size segment.
* The owning checker drains a whole log segment in one call at its
  natural observation points (membar-injection heartbeats, log-full,
  ``DVMC.finalize``), with attribute lookups hoisted out of the loop.

Because every record carries the cycle at which the event was
*observed*, a drained checker reports the same violations with the
same timestamps as an eager one (a checker with no log attached,
which checks every event as it arrives).  The two are bit-identical
in violations and stats; ``tests/dvmc/test_streaming.py`` holds the
log to the eager checker, unit by unit and on whole-system runs.
"""

from __future__ import annotations

from array import array

#: Ints per record.  All logs use one fixed record width so a drain
#: loop is a single stride walk over the backing array.
RECORD_WIDTH = 6

#: Default log cap in records.  A full segment amortises the per-drain
#: overhead thousands of ways while staying small enough (192 KiB at
#: the cap) to be cache-friendly.
LOG_RECORDS = 4096

#: First allocation in records; the buffer grows by :data:`LOG_GROWTH`
#: from here up to the cap.
LOG_START_RECORDS = 64
LOG_GROWTH = 4


class OpLog:
    """Growable buffer of fixed-width integer records.

    The log is deliberately dumb: the owning checker writes fields
    directly into :attr:`buf` at offset :attr:`length` and bumps
    ``length`` by :data:`RECORD_WIDTH` (inlined at the call site — one
    method call per record would defeat the purpose).  When an append
    finds no room, the owner first tries :meth:`grow`; only a log at
    its cap (``max_capacity``) is drained in place and restarted at
    offset zero.  Drains therefore fire at exactly the record counts a
    full-size preallocated log would drain at, while a short run only
    ever allocates the few hundred records it writes.  ``buf`` grows in
    place (never replaced) and record tuples are never materialised.
    """

    __slots__ = ("buf", "length", "capacity", "max_capacity")

    def __init__(self, records: int = LOG_RECORDS):
        #: The cap, in array slots: the log drains only once this full.
        self.max_capacity = records * RECORD_WIDTH
        #: Slots allocated so far.
        self.capacity = min(records, LOG_START_RECORDS) * RECORD_WIDTH
        #: Signed 64-bit storage: every logged field (op codes, sequence
        #: numbers, membar masks, table ids, cycles) is a machine int.
        self.buf = array("q", bytes(8 * self.capacity))
        self.length = 0

    def __len__(self) -> int:
        return self.length // RECORD_WIDTH

    @property
    def full(self) -> bool:
        return self.length >= self.max_capacity

    def grow(self) -> bool:
        """Enlarge ``buf`` by :data:`LOG_GROWTH` (clamped to the cap).

        Returns False, changing nothing, when the log is already at its
        cap — the owner's cue to drain instead.
        """
        old = self.capacity
        if old >= self.max_capacity:
            return False
        new = min(self.max_capacity, old * LOG_GROWTH)
        self.buf.frombytes(bytes(8 * (new - old)))
        self.capacity = new
        return True

    def clear(self) -> None:
        self.length = 0

    def stats(self) -> dict:
        """Observable interface: fill level in records, not array slots."""
        return {
            "records": self.length // RECORD_WIDTH,
            "capacity_records": self.capacity // RECORD_WIDTH,
            "max_capacity_records": self.max_capacity // RECORD_WIDTH,
            "fill": (
                self.length / self.max_capacity if self.max_capacity else 0.0
            ),
        }
