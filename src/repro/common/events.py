"""Discrete-event simulation kernel.

All hardware components share a single :class:`Scheduler`.  Components
schedule callbacks at absolute or relative cycle times; the scheduler
runs them in time order, breaking ties by insertion order so runs are
deterministic for a fixed seed.

The queue is a *calendar queue*: a ring of per-cycle buckets covering
the window ``[now, window_end)`` plus an overflow heap for far-future
events (periodic heartbeats, checkpoint timers).  Scheduling inside the
window — the overwhelmingly common case: pipeline stages, cache and
link latencies are all far smaller than the ring — is an O(1) list
append, and draining a cycle is a linear walk of its bucket, replacing
the old heap's O(log n) push/pop and its per-event tuple allocation.
The window is never wider than the ring, so a bucket only ever holds
one cycle's events, appended in schedule order; execution therefore
preserves the exact ``(time, seq)`` order of a plain binary heap, which
``tests/common/test_events_equivalence.py`` checks against an in-test
heap reference on randomized programs.
"""

from __future__ import annotations

import itertools
from heapq import heappop, heappush
from typing import Any, Callable, List, Optional, Tuple

from .errors import SimulationError

#: Number of per-cycle buckets in the calendar ring (power of two).
#: Events due within ``RING_SIZE`` cycles go to ring buckets; farther
#: events wait in the overflow heap and migrate into the ring when the
#: window advances past them.
RING_SIZE = 2048

#: Batch-advance threshold K: a post due within K cycles
#: is *dense* and costs nothing extra to schedule — the drain cursor
#: finds it with a short bucket walk.  A post due further out is
#: *sparse* and registers its bucket time in a small min-heap, so a
#: quiescent span of more than K cycles is jumped with one heap pop
#: instead of being probed bucket by bucket.
DENSE_SPAN = 64


def _noop() -> None:
    """Sentinel callback for late-lane cycles (see ``post_late``)."""


class Scheduler:
    """Deterministic discrete-event scheduler keyed by cycle count.

    See the module docstring for the calendar-queue layout.  Every
    queued event is a ``callback, args`` record; nothing is allocated
    to schedule one, and nothing can be cancelled.  Representation:

    * a bucket is a flat list of records, each occupying two adjacent
      slots (``callback``, ``args``) in append order — the order alone
      carries the tie-break, so in-window records need no sequence
      number;
    * the overflow heap holds ``(time, seq, callback, args)`` tuples,
      ``seq`` drawn from one counter so equal times pop in post order;
    * ``_times`` is a min-heap of *sparse* bucket times — targets of
      posts due more than :data:`DENSE_SPAN` cycles out (plus overflow
      migrations).  Dense posts pay nothing; the drain cursor walks at
      most ``DENSE_SPAN`` buckets (which provably covers every pending
      dense record) and then batch-advances: one lazy heap pop jumps a
      quiescent span of any length straight to the next occupied
      sparse bucket;
    * the ring is allocated lazily: a slot is ``None`` until a record
      first lands there (``post``, ``post_at`` or an overflow
      migration), and the bucket list created then is kept and reused
      for every later cycle that maps to the slot.  A machine that runs
      a few hundred cycles builds a few hundred lists, not
      ``ring_size``.  The drain walk needs no check of its own, since
      ``None`` is falsy exactly like an empty bucket.

    Invariants:

    * every ring event's time lies in ``[now, window_end)`` and
      ``window_end - now <= ring_size``, so bucket ``time & mask`` is
      unambiguous (two pending times can only collide if they differ by
      at least a full ring);
    * every overflow event's time is ``>= window_end``, so migrating
      the overflow in heap order appends each bucket's events in
      ``(time, seq)`` order before any direct append can target it;
    * a pending record posted with delay ``<= DENSE_SPAN`` always lies
      within ``DENSE_SPAN`` cycles of the current ``now`` (time only
      advances after the post), so the bounded drain walk cannot miss
      it; every record beyond the walk horizon was sparse when posted
      (or was migrated from overflow into an empty bucket) and its
      bucket time is in ``_times``.  Heap entries below the window
      floor or naming an empty bucket are stale and safe to pop.
    """

    __slots__ = (
        "_ring",
        "_mask",
        "_ring_size",
        "_ring_count",
        "_times",
        "_overflow",
        "_window_end",
        "_counter",
        "now",
        "_events_processed",
        "_late",
        "_late_count",
        "_halted",
    )

    def __init__(self, ring_size: int = RING_SIZE) -> None:
        if ring_size <= 0 or ring_size & (ring_size - 1):
            raise SimulationError("ring_size must be a power of two")
        #: Bucket lists are created on first use (see the class
        #: docstring); an untouched slot is ``None``.
        self._ring: List[Optional[list]] = [None] * ring_size
        self._mask = ring_size - 1
        self._ring_size = ring_size
        #: Records currently in ring buckets.
        self._ring_count = 0
        #: Min-heap of occupied bucket times (may hold stale entries).
        self._times: List[int] = []
        self._overflow: List[Tuple[int, int, Callable[..., Any], tuple]] = []
        self._window_end = ring_size
        self._counter = itertools.count()
        self.now = 0
        self._events_processed = 0
        #: Late lanes: cycle -> flat (callback, args) record pairs that
        #: run after every normally-posted record of that cycle.
        self._late: dict = {}
        #: Records currently sitting in late lanes.  Kept out of
        #: ``_ring_count`` until splice time: a lane's cycle may lie
        #: beyond the current window (its sentinel then lives in the
        #: overflow heap), and counting its records as ring-resident
        #: would make the drain cursor search the ring for records
        #: that are not there.
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
            "ring_size": self._ring_size,
            "overflow_pending": len(self._overflow),
        }

    def post(self, delay: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` ``delay`` cycles from now.

        An in-window record is stored *flat in the bucket itself* as
        two adjacent slots (``callback``, ``args``) — no wrapper, no
        sequence number (the bucket's append order alone carries the
        tie-break).  An out-of-window record goes to the overflow heap
        as ``(time, seq, callback, args)``.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        if time < self._window_end:
            bucket = self._ring[time & self._mask]
            if not bucket:
                if delay > DENSE_SPAN:
                    heappush(self._times, time)
                if bucket is None:
                    self._ring[time & self._mask] = bucket = []
            bucket.append(callback)
            bucket.append(args)
            self._ring_count += 1
        else:
            heappush(self._overflow, (time, next(self._counter), callback, args))

    def post_at(self, time: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` at absolute cycle ``time``.

        Absolute-time twin of :meth:`post` (kept separate so the hot
        relative path pays no extra call); rejects times in the past.
        """
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event at {time}, current time is {self.now}"
            )
        if time < self._window_end:
            bucket = self._ring[time & self._mask]
            if not bucket:
                if time - self.now > DENSE_SPAN:
                    heappush(self._times, time)
                if bucket is None:
                    self._ring[time & self._mask] = bucket = []
            bucket.append(callback)
            bucket.append(args)
            self._ring_count += 1
        else:
            heappush(self._overflow, (time, next(self._counter), callback, args))

    def post_late(self, delay: int, callback: Callable[..., Any], args: tuple = ()) -> None:
        """Schedule ``callback(*args)`` in cycle ``now + delay``'s *late lane*.

        A late record runs at its cycle strictly **after** every
        normally-posted record of that cycle — including zero-delay
        records appended while the cycle's bucket is draining (the
        drain splices the late lane in only once the bucket is
        exhausted, re-checking its length first).  Within the lane,
        records run in post order.  This is the hook the wakeup plane
        (:mod:`repro.common.waitsets`) uses to run condition re-checks
        at end-of-cycle, after every state transition of the cycle has
        been applied, so check outcomes do not depend on intra-cycle
        event interleaving.

        A zero-delay post made *by* a late record runs in the same
        cycle, after the lane (normal records append behind the
        splice); a ``post_late(0, ...)`` made by a late record opens a
        fresh lane that runs after those.  The first late record for a
        cycle posts a no-op sentinel through :meth:`post_at` so the
        cycle stays discoverable by the drain cursor even when it has
        no normal records.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        time = self.now + delay
        lane = self._late.get(time)
        if lane is None:
            self._late[time] = lane = []
            self.post_at(time, _noop)
        lane.append(callback)
        lane.append(args)
        self._late_count += 1

    def halt(self) -> None:
        """Make :meth:`run` return at the end of the current bucket.

        Called from inside a callback (or before :meth:`run`) this
        stops the run loop at the next bucket boundary — the cycle's
        remaining records (and late lane) still execute, so the stop
        point is a pure function of simulated time, never of how many
        host-side events a cycle happened to contain.  One-shot: the
        flag clears when it takes effect.
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
        return self._ring_count + self._late_count + len(self._overflow)

    def clear(self) -> None:
        """Drop every queued record, late lanes included, unrun.

        A run that halts at quiescence leaves timers queued (checker
        sweeps, checkpoint clocks) whose callbacks point back into the
        machine; the System clears its queue when it is freed so those
        references go with it.  ``now`` is kept.
        """
        for bucket in self._ring:
            if bucket:
                del bucket[:]
        del self._times[:]
        del self._overflow[:]
        self._late.clear()
        self._ring_count = 0
        self._late_count = 0

    def _locate(
        self, limit: Optional[int] = None
    ) -> Optional[Tuple[int, Optional[list]]]:
        """Cursor to the next non-empty bucket, or None when drained.

        :meth:`run`'s slow path, for when its inline dense probe finds
        nothing.  Does not consume events.  The bucket walk is
        bounded: after :data:`DENSE_SPAN` empty probes (which provably
        cover every pending dense record) the cursor batch-advances
        through the ``_times`` heap of sparse bucket times (stale heads
        — entries below the window floor or naming since-emptied
        buckets — are popped lazily), so a long quiescent span is
        jumped in one heap operation rather than probed bucket by
        bucket.  When the ring is empty
        the window jumps to the earliest overflow event and every
        overflow event inside the new window migrates into the ring (in
        heap order, preserving ``(time, seq)``) — except that with a
        ``limit`` the jump is *not* committed when the earliest event
        lies beyond it: ``(time, None)`` is returned instead, leaving
        the window consistent with ``now`` for the caller's early
        return.  The floor for genuine entries is the window's base,
        not ``now``, because right after a jump the window begins in
        the future and an entry at ``now`` could name a bucket under a
        time label one ring-period early.
        """
        ring = self._ring
        mask = self._mask
        overflow = self._overflow
        times = self._times
        while True:
            if self._ring_count:
                floor = self._window_end - self._ring_size
                if self.now > floor:
                    floor = self.now
                t = floor
                bucket = ring[t & mask]
                if bucket:
                    return t, bucket
                # Bounded dense walk.  The horizon is clamped to the
                # window so a tiny ring can never wrap onto an aliased
                # time label mid-walk.
                horizon = t + DENSE_SPAN
                end = self._window_end - 1
                if horizon > end:
                    horizon = end
                while t < horizon:
                    t += 1
                    bucket = ring[t & mask]
                    if bucket:
                        return t, bucket
                # Batch advance: everything pending is sparse, so the
                # next occupied bucket's time is in the heap.
                while True:
                    t = times[0]
                    if t > horizon:
                        bucket = ring[t & mask]
                        if bucket:
                            return t, bucket
                    heappop(times)
            if not overflow:
                # Re-anchor the (empty) window at ``now`` so times in
                # [now, now + ring) bucket unambiguously again even if
                # a jump had pushed the window into the far future.
                self._window_end = self.now + self._ring_size
                del times[:]
                return None
            first = overflow[0][0]
            if limit is not None and first > limit:
                return first, None
            end = first + self._ring_size
            self._window_end = end
            count = 0
            while overflow and overflow[0][0] < end:
                time, _seq, callback, args = heappop(overflow)
                bucket = ring[time & mask]
                if not bucket:
                    heappush(times, time)
                    if bucket is None:
                        ring[time & mask] = bucket = []
                bucket.append(callback)
                bucket.append(args)
                count += 1
            self._ring_count += count

    def _splice_late(self, t: int, bucket: list) -> bool:
        """Move cycle ``t``'s late lane into its (exhausted) bucket.

        Called only when ``bucket`` has no unconsumed records left, so
        the lane lands after every normal record of the cycle.  Returns
        True when records were spliced.
        """
        if not self._late:
            return False
        lane = self._late.pop(t, None)
        if lane is None:
            return False
        bucket.extend(lane)
        moved = len(lane) >> 1  # flat pairs: two slots per record
        self._late_count -= moved
        self._ring_count += moved
        return True

    def run(self, until: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` passes or :meth:`halt`.

        This is the simulator's innermost loop (tens of thousands of
        iterations per run): buckets are drained with a plain index
        walk over the flat ``callback, args`` records.  With ``until``
        the run stops once simulated time would exceed that cycle,
        leaving ``now`` at ``until``.
        """
        locate = self._locate
        ring = self._ring
        mask = self._mask
        ring_size = self._ring_size
        # ``events_processed`` is flushed from this local on every exit
        # (the ``finally`` covers returns and callback exceptions);
        # nothing observes the counter mid-run, so batching it off the
        # per-event path is free.  ``_ring_count`` by contrast *is*
        # decremented per record: callbacks may poll ``pending()`` and
        # must never see already-run events, matching the old heap
        # kernel's pop-then-execute accounting.
        done = 0
        try:
            while True:
                if self._halted:
                    self._halted = False
                    return
                # Inline bucket cursor: ``_locate``'s dense probe
                # without the call — at ~2 events per bucket the
                # call-and-rehoist overhead is measurable.  Sparse
                # batch-advance, window jumps, and the drained case
                # fall back to the full ``_locate``.
                bucket = None
                if self._ring_count:
                    floor = self._window_end - ring_size
                    now = self.now
                    t = floor if floor > now else now
                    bucket = ring[t & mask]
                    if not bucket:
                        horizon = t + DENSE_SPAN
                        end = self._window_end - 1
                        if horizon > end:
                            horizon = end
                        while t < horizon:
                            t += 1
                            bucket = ring[t & mask]
                            if bucket:
                                break
                        else:
                            bucket = None
                if bucket is None:
                    located = locate(until)
                    if located is None:
                        return
                    t, bucket = located
                if until is not None and t > until:
                    self.now = until
                    return
                # Every record in a located bucket runs, so the cycle
                # label is set once per bucket.
                self.now = t
                i = 0
                # ``n`` is re-sampled only when the walk catches up with
                # it: same-cycle posts append to the bucket being
                # drained, so the bound grows mid-walk, but re-checking
                # len() at the catch-up point (instead of per record) is
                # enough to notice — callbacks are the only appenders
                # and every path through the loop body funnels back
                # here.  Appends are whole records, so ``i`` and ``n``
                # always land on record boundaries.
                n = len(bucket)
                while True:
                    if i == n:
                        n = len(bucket)
                        if i == n:
                            # Exhausted for real: splice in the cycle's
                            # late lane (wakeup agendas) and keep
                            # draining, or finish the bucket.
                            if not self._splice_late(t, bucket):
                                break
                            n = len(bucket)
                    callback = bucket[i]
                    args = bucket[i + 1]
                    i += 2
                    self._ring_count -= 1
                    done += 1
                    callback(*args)
                del bucket[:]
        finally:
            self._events_processed += done
