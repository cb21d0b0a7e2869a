"""Wait/notify plane: condition subscriptions for the event kernel.

A blocked operation used to re-post itself every ``RETRY_PERIOD``
cycles and re-evaluate its gate — cheap per event, but ~44% of all
simulated events were such polls (EXPERIMENTS.md, "Wake-on-change
kernel").  This module replaces the re-posts with parking: a
blocked op parks a :class:`Waiter` on the :class:`WaitSet` guarding
its condition, and every hardware transition that can flip the
condition calls :meth:`WaitSet.notify`.  The waiter is then re-checked
once, at the next point of its retry grid — the same cycle the old
poll would have first observed the change — instead of burning an
event every period in between.

Re-checks run at exactly the cycles, and in the order, at which a
fixed-period poll of the same gates would run, so the wake plane
changes the simulator's event count, never the simulated machine.
The test suite checks this against a polling reference hub
(``PollingHub`` in ``tests/common/test_waitsets.py``: every park arms
the next grid point, notifies are ignored).  The identity rests on
four rules:

* **End-of-cycle agendas.**  Re-checks never run mid-cycle.  They run
  in the cycle's *late lane* (:meth:`Scheduler.post_late`), after every
  normally-posted event of the cycle, so a check's outcome depends
  only on the cycle's final state — not on where in the cycle the
  notifying transition happened to sit.  A poller driven by the same
  agendas therefore evaluates the same predicates at the same
  simulated instants.
* **Grid anchoring.**  A waiter's checks stay on the grid
  ``anchor + k·RETRY_PERIOD`` (the anchor resets at every failed
  check, which preserves the grid because the period is uniform).  A
  notify at cycle ``now`` schedules the re-check at the first grid
  point ``>= now`` — exactly the first poll that would have seen the
  change.
* **Episode-stable sequence numbers.**  Agendas check waiters in
  global park order (``seq``).  A seq is assigned once per *episode*
  (first park of a blocked op) and survives re-parks, so episodes are
  numbered the same whether a waiter is re-parked once per notify or
  once per period.
* **One hub per system.**  Same-cycle checks from different cores
  share one agenda ordered by ``seq``; per-core agendas would order
  cross-core checks by notify arrival, which depends on the retry
  regime.

Notify-at-``now`` edge cases: if the cycle's agenda is currently
running, a waiter whose seq is still ahead of the cursor joins it
(a poller would have checked it in this agenda); a waiter already
passed — or a notify arriving after the agenda finished (delay-0
chains) — is armed for the next period, matching the poll that just
failed.  Failed checks must be architecturally side-effect-free;
per-episode stall counters belong to the parking site (see
``Core._vc_stall_flag``).

Parked waiters are **not** scheduler events: ``Scheduler.pending()``
never counts them — only the single per-cycle agenda record armed
waiters share, which always runs.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, List, Optional

#: Modeled retry latency: a failed check re-arms this many cycles out,
#: and a notified waiter wakes at the next multiple of this period on
#: its grid.  Uniform across every parking site — heterogeneous
#: periods would let a wake skip intermediate grid points that a poll
#: evaluates.
RETRY_PERIOD = 2


class Waiter:
    """One parked episode of a blocked operation.

    Identified by its ``(callback, args)`` check — the same callable
    the old poll would have re-posted.  Also serves as the "at most
    one pending retry per record" guard: parking an already-parked
    check returns the live waiter instead of stacking a second one.
    """

    __slots__ = (
        "ws",
        "callback",
        "args",
        "seq",
        "anchor",
        "start",
        "parked",
        "armed",
    )

    def __init__(
        self,
        ws: "WaitSet",
        callback: Callable[..., Any],
        args: tuple,
        seq: int,
        now: int,
    ) -> None:
        self.ws = ws
        self.callback = callback
        self.args = args
        self.seq = seq
        #: Retry-grid origin; reset at every park so the next check
        #: lands at ``anchor + RETRY_PERIOD`` (grid-preserving: the
        #: period is uniform).
        self.anchor = now
        #: Episode start, for the wait-duration histogram.
        self.start = now
        self.parked = True
        self.armed = False

    def __lt__(self, other: "Waiter") -> bool:
        return self.seq < other.seq


class WaitSet:
    """A condition's set of parked waiters.

    One per guarded condition family (a core's ordering/resource
    state, its ROB head).  ``notify()`` is called by every transition
    that can flip the condition false→true; spurious notifies are safe
    (the re-check just fails and re-parks).
    """

    __slots__ = ("hub", "waiters")

    def __init__(self, hub: "WakeHub") -> None:
        self.hub = hub
        self.waiters: List[Waiter] = []

    def park(self, callback: Callable[..., Any], args: tuple = ()) -> Waiter:
        """Park ``callback(*args)`` until notified."""
        return self.hub.park(self, callback, args)

    def notify(self) -> None:
        """Signal that this set's condition may have become true."""
        self.hub.notify(self)


class WakeHub:
    """System-wide wakeup coordinator: arms waiters, runs agendas.

    Owns the global episode sequence and the per-cycle agendas that
    run in the scheduler's late lane.
    """

    __slots__ = (
        "_sched",
        "_seq",
        "_due",
        "_heap",
        "_running_cycle",
        "_cursor",
        "_agenda_done",
        "_checking",
        "waits_parked",
        "notifies",
        "wakes",
        "spurious_wakeups",
        "parked_now",
        "_wait_count",
        "_wait_sum",
        "_wait_min",
        "_wait_max",
    )

    def __init__(self, scheduler) -> None:
        self._sched = scheduler
        self._seq = 0
        #: cycle -> waiters armed for that cycle's agenda.
        self._due: dict = {}
        #: The agenda heap currently being drained (else None).
        self._heap: Optional[List[Waiter]] = None
        self._running_cycle = -1
        #: seq of the waiter the running agenda is at.
        self._cursor = -1
        #: Last cycle whose agenda has already finished.
        self._agenda_done = -1
        #: Waiter whose check callback is on the stack right now;
        #: a park of the same check is a re-park of this episode.
        self._checking: Optional[Waiter] = None
        # Obs counters (they vary with the retry regime; exported via
        # obs_snapshot, never part of RunMetrics equality).
        self.waits_parked = 0
        self.notifies = 0
        self.wakes = 0
        self.spurious_wakeups = 0
        self.parked_now = 0
        self._wait_count = 0
        self._wait_sum = 0
        self._wait_min = 0
        self._wait_max = 0

    def park(
        self, ws: WaitSet, callback: Callable[..., Any], args: tuple
    ) -> Waiter:
        """Park a check; returns its (new or already-live) waiter."""
        now = self._sched.now
        w = self._checking
        if w is not None and w.callback == callback and w.args == args:
            # Failed re-check parking itself again: same episode, same
            # seq.
            w.ws = ws
            w.parked = True
            w.anchor = now
            ws.waiters.append(w)
            self.spurious_wakeups += 1
            self.parked_now += 1
            return w
        # At-most-one pending retry per record: a second park of a
        # live check (e.g. two paths kicking the same stalled pump)
        # must not stack another episode.
        for w in ws.waiters:
            if w.callback == callback and w.args == args:
                return w
        w = Waiter(ws, callback, args, self._seq, now)
        self._seq += 1
        ws.waiters.append(w)
        self.waits_parked += 1
        self.parked_now += 1
        return w

    def notify(self, ws: WaitSet) -> None:
        """Arm ``ws``'s unarmed waiters for their next grid check."""
        self.notifies += 1
        waiters = ws.waiters
        if not waiters:
            return
        now = self._sched.now
        for w in waiters:
            if w.armed:
                continue
            # First grid point >= now (and > anchor): the first poll
            # that would have observed this change.
            k = -((w.anchor - now) // RETRY_PERIOD)
            if k < 1:
                k = 1
            t = w.anchor + k * RETRY_PERIOD
            if t > now:
                self._arm(w, t)
            elif self._running_cycle == now:
                if w.seq > self._cursor:
                    # This cycle's agenda would have reached it (a
                    # poller already has it queued): join in seq order.
                    w.armed = True
                    heappush(self._heap, w)
                else:
                    # Already checked (and failed) earlier in this
                    # agenda — next chance is a full period out.
                    self._arm(w, now + RETRY_PERIOD)
            elif self._agenda_done == now:
                # Post-agenda delay-0 chain: this cycle's check already
                # ran and failed.
                self._arm(w, now + RETRY_PERIOD)
            else:
                self._arm(w, now)

    def _arm(self, w: Waiter, t: int) -> None:
        w.armed = True
        due = self._due.get(t)
        if due is None:
            self._due[t] = [w]
            self._sched.post_late(t - self._sched.now, self._run_agenda, (t,))
        else:
            due.append(w)

    def _run_agenda(self, t: int) -> None:
        """Run cycle ``t``'s checks in global park (seq) order."""
        heap = self._due.pop(t)
        heapify(heap)
        self._heap = heap
        self._running_cycle = t
        while heap:
            w = heappop(heap)
            self._cursor = w.seq
            w.armed = False
            if not w.parked:
                continue
            w.parked = False
            self.parked_now -= 1
            w.ws.waiters.remove(w)
            self._checking = w
            w.callback(*w.args)
            self._checking = None
            if not w.parked:
                # Episode over: the check made progress.
                self.wakes += 1
                dur = t - w.start
                self._wait_count += 1
                self._wait_sum += dur
                if dur > self._wait_max:
                    self._wait_max = dur
                if dur < self._wait_min or self._wait_count == 1:
                    self._wait_min = dur
        self._heap = None
        self._running_cycle = -1
        self._cursor = -1
        self._agenda_done = t

    def clear(self) -> None:
        """Drop every armed waiter, unrun.

        A run cut short (a dropped message hangs it, or ``max_cycles``
        stops it) can end with waiters armed, and each one's callback
        points back into its core; the System clears the hub and its
        cores' wait sets when it is freed so those references go with
        it.
        """
        self._due.clear()

    def obs_snapshot(self) -> dict:
        """Observable interface: wakeup counters + wait-duration
        histogram (count/sum/min/max, cycles per episode)."""
        return {
            "waits_parked": self.waits_parked,
            "notifies": self.notifies,
            "wakes": self.wakes,
            "spurious_wakeups": self.spurious_wakeups,
            "parked": self.parked_now,
            "wait_cycles": {
                "count": self._wait_count,
                "sum": self._wait_sum,
                "min": self._wait_min,
                "max": self._wait_max,
            },
        }
