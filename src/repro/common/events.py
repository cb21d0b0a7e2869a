"""Discrete-event simulation kernel.

All hardware components share a single :class:`Scheduler`.  Components
schedule callbacks at absolute or relative cycle times; the scheduler
runs them in exact ``(time, seq)`` order, ``seq`` being the order of
posting, so runs are deterministic for a fixed seed.

The queue is a binary heap of ``(time, seq, callback, args)`` records,
plus one *late lane* per cycle that holds the records posted with
:meth:`Scheduler.post_late` until the cycle has run everything else
(see that method).  The randomized equivalence suites in
``tests/common/`` hold the kernel to an in-test reference heap.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import SimulationError

#: One queued record: ``callback(*args)`` is due at cycle ``time``.
Record = Tuple[int, int, Callable[..., Any], tuple]


def _noop() -> None:
    """Sentinel callback for late-lane cycles (see ``post_late``)."""


class Scheduler:
    """Deterministic discrete-event scheduler keyed by cycle count.

    Every queued event is one :data:`Record`; nothing can be cancelled.
    Invariants the callers rely on:

    * records run in exact ``(time, seq)`` order, and each one is
      popped before it is called, so :meth:`pending` is exact at every
      event and a record whose callback raises never runs again;
    * a cycle's late lane joins the heap only once no other record of
      that cycle is left (:meth:`post_late`);
    * :meth:`run` stops only when the queue drains, at ``until``, or at
      the end of a cycle in which :meth:`halt` was called.
    """

    __slots__ = (
        "_heap",
        "_seq",
        "now",
        "_events_processed",
        "_late",
        "_late_count",
        "_halted",
    )

    def __init__(self) -> None:
        self._heap: List[Record] = []
        self._seq = itertools.count()
        self.now = 0
        self._events_processed = 0
        #: Late lanes: cycle -> records that join the heap once every
        #: other record of that cycle has run.
        self._late: Dict[int, List[Record]] = {}
        #: Records currently sitting in late lanes.
        self._late_count = 0
        self._halted = False

    @property
    def events_processed(self) -> int:
        """Total callbacks executed so far (for progress/statistics)."""
        return self._events_processed

    def obs_snapshot(self) -> dict:
        """Observable interface: queue state."""
        return {
            "events_processed": self._events_processed,
            "pending": self.pending(),
            "now": self.now,
        }

    def post(self, delay: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        heappush(self._heap, (self.now + delay, next(self._seq), callback, args))

    def post_at(self, time: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``time``.

        Absolute-time twin of :meth:`post` (kept separate so the hot
        relative path pays no extra call); rejects times in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        heappush(self._heap, (time, next(self._seq), callback, args))

    def post_late(self, delay: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` in cycle ``now + delay``'s *late lane*.

        A late record runs at its cycle strictly **after** every
        normally-posted record of that cycle, including zero-delay
        records posted while the cycle runs: the lane joins the heap
        only once no other record of its cycle is left.  Within the
        lane, records run in post order.  This is the hook the wakeup
        plane (:mod:`repro.common.waitsets`) uses to run condition
        re-checks at end-of-cycle, after every state transition of the
        cycle has been applied, so check outcomes do not depend on
        intra-cycle event interleaving.

        A late record takes its ``seq`` when posted.  When its lane
        joins the heap every record left there is of a later cycle, so
        the lane runs next, in post order, and anything posted from
        then on, a zero-delay post made *by* a late record included,
        runs after it.  A ``post_late(0, ...)`` made by a late record
        opens a fresh lane that runs after those.  The first late
        record for a cycle posts a no-op sentinel into the heap, so the
        cycle is reached even when it has no normal records; the
        sentinel counts as one pending and one processed event.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        lane = self._late.get(time)
        if lane is None:
            self._late[time] = lane = []
            heappush(self._heap, (time, next(self._seq), _noop, ()))
        lane.append((time, next(self._seq), callback, args))
        self._late_count += 1

    def halt(self) -> None:
        """Make :meth:`run` return at the end of the current cycle.

        Called from inside a callback this stops the run loop once the
        cycle's remaining records (late lane included) have run, so
        the stop point is a pure function of simulated time, never of
        how many host-side events a cycle happened to contain.  Called
        before :meth:`run`, that run returns before running anything.
        One-shot: the flag clears when it takes effect, even in a run
        that finds nothing queued.
        """
        self._halted = True

    def pending(self) -> int:
        """Number of queued events still due to run, exact per event.

        Late-lane records (:meth:`post_late`) and their per-cycle
        sentinel each count as one pending event until they run.
        Waiters parked on a :class:`~repro.common.waitsets.WaitSet` are
        *not* scheduler events and never appear here — a parked waiter
        contributes nothing; only the per-cycle agenda record that an
        *armed* waiter shares with its cycle is counted, and that
        record always runs.
        """
        return len(self._heap) + self._late_count

    def clear(self) -> None:
        """Drop every queued record, late lanes included, unrun.

        A run that halts at quiescence leaves timers queued (checker
        sweeps, checkpoint clocks) whose callbacks point back into the
        machine; the System clears its queue when it is freed so those
        references go with it.  ``now`` is kept.
        """
        del self._heap[:]
        self._late.clear()
        self._late_count = 0

    def _splice_late(self, time: int) -> None:
        """Move cycle ``time``'s late lane into the heap."""
        lane = self._late.pop(time)
        self._late_count -= len(lane)
        heap = self._heap
        for record in lane:
            heappush(heap, record)

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes or :meth:`halt`.

        This is the simulator's innermost loop.  With ``until`` the run
        stops once simulated time would exceed that cycle, leaving
        ``now`` at ``until``; a queue that drains first leaves ``now``
        at the last event.  Time never runs backwards: an ``until``
        below ``now`` runs nothing and leaves ``now`` as it is.  A run
        re-entered after a callback raised picks up with the records
        still queued; if the raising record was the last normal record
        of its cycle, that cycle's late lane runs first.
        """
        heap = self._heap
        late = self._late
        # ``events_processed`` is flushed from this local on every exit
        # (the ``finally`` covers returns and callback exceptions);
        # nothing observes the counter mid-run.
        done = 0
        try:
            while True:
                if self._halted:
                    self._halted = False
                    return
                now = self.now
                # A lane whose cycle has no record left can only be one
                # that a raising callback stranded (see the docstring).
                if now in late and (not heap or heap[0][0] != now):
                    self._splice_late(now)
                if not heap:
                    return
                now = heap[0][0]
                if until is not None and now > until:
                    if until > self.now:
                        self.now = until
                    return
                self.now = now
                # Drain cycle ``now``: its records, then its late lane
                # once nothing else of the cycle is left.
                while True:
                    _time, _seq, callback, args = heappop(heap)
                    done += 1
                    callback(*args)
                    if heap and heap[0][0] == now:
                        continue
                    if now not in late:
                        break
                    self._splice_late(now)
        finally:
            self._events_processed += done
