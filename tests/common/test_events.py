"""Discrete-event scheduler."""

import heapq
import importlib
import itertools
import random

import pytest

from repro.common.errors import SimulationError
from repro.common.events import DENSE_SPAN, RING_SIZE, Scheduler


class TestScheduling:
    def test_runs_in_time_order(self):
        s = Scheduler()
        out = []
        s.post(10, out.append, ("b",))
        s.post(5, out.append, ("a",))
        s.post(20, out.append, ("c",))
        s.run()
        assert out == ["a", "b", "c"]
        assert s.now == 20

    def test_ties_break_by_insertion_order(self):
        s = Scheduler()
        out = []
        for tag in "abc":
            s.post(7, out.append, (tag,))
        s.run()
        assert out == ["a", "b", "c"]

    def test_zero_delay_runs_at_current_time(self):
        s = Scheduler()
        out = []
        s.post(0, out.append, (1,))
        s.run()
        assert s.now == 0 and out == [1]

    def test_negative_delay_rejected(self):
        s = Scheduler()
        with pytest.raises(SimulationError):
            s.post(-1, lambda: None)

    def test_schedule_in_past_rejected(self):
        s = Scheduler()
        s.post(10, lambda: None)
        s.run()
        with pytest.raises(SimulationError):
            s.post_at(5, lambda: None)

    def test_events_scheduled_during_run(self):
        s = Scheduler()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                s.post(1, chain, (n + 1,))

        s.post(0, chain, (0,))
        s.run()
        assert out == [0, 1, 2, 3]
        assert s.now == 3

    @pytest.mark.parametrize("ring_size", [0, 3, 100])
    def test_ring_size_must_be_a_power_of_two(self, ring_size):
        with pytest.raises(SimulationError):
            Scheduler(ring_size)


class TestSurface:
    """The kernel offers only what the simulated machine calls: one
    record shape, no handles, no cancellation, no predicate stops."""

    @pytest.mark.parametrize("name", ["at", "after", "step"])
    def test_retired_method_is_gone(self, name):
        assert not hasattr(Scheduler, name)

    @pytest.mark.parametrize("module", ["repro.common.events", "repro.common"])
    def test_no_event_handle_class(self, module):
        assert not hasattr(importlib.import_module(module), "Event")

    @pytest.mark.parametrize(
        "bound",
        [
            {"stop_when": lambda: True},
            {"max_events": 10},
            {"stop_interval": 2},
        ],
        ids=["stop_when", "max_events", "stop_interval"],
    )
    def test_run_refuses_retired_bound(self, bound):
        s = Scheduler()
        s.post(1, lambda: None)
        with pytest.raises(TypeError):
            s.run(**bound)
        assert s.pending() == 1 and s.now == 0


class TestBounds:
    def test_until_stops_before_later_events(self):
        s = Scheduler()
        out = []
        s.post(5, out.append, ("a",))
        s.post(50, out.append, ("b",))
        s.run(until=10)
        assert out == ["a"]
        assert s.now == 10
        s.run()
        assert out == ["a", "b"]

    def test_events_processed_counter(self):
        s = Scheduler()
        for i in range(5):
            s.post(i, lambda: None)
        s.run()
        assert s.events_processed == 5

    def test_until_inside_a_bucket(self):
        """`until` between populated cycles of the current ring window."""
        s = Scheduler()
        out = []
        for tag in "ab":
            s.post(5, out.append, (tag,))
        s.post(6, out.append, ("c",))
        s.run(until=5)
        assert out == ["a", "b"]
        assert s.now == 5
        s.run(until=5)  # idempotent: nothing left at or before 5
        assert out == ["a", "b"]
        s.run()
        assert out == ["a", "b", "c"]
        assert s.now == 6

    def test_until_before_overflow_event(self):
        """`until` must not let a window jump run far-future events."""
        s = Scheduler()
        out = []
        s.post(3 * RING_SIZE, out.append, ("far",))
        s.run(until=10)
        assert out == []
        assert s.now == 10
        assert s.pending() == 1
        s.run()
        assert out == ["far"]
        assert s.now == 3 * RING_SIZE


class TestCalendarQueueEdges:
    def test_after_zero_runs_same_cycle_in_seq_order(self):
        """A zero-delay post from inside a callback joins the *current*
        cycle, behind everything already queued for it."""
        s = Scheduler()
        out = []

        def first():
            out.append("first")
            s.post(0, out.append, ("spawned",))

        s.post(5, first)
        s.post(5, out.append, ("second",))
        s.run()
        assert out == ["first", "second", "spawned"]
        assert s.now == 5

    def test_pending_excludes_executing_event(self):
        """Inside a callback the event being executed is already popped
        (heap-kernel semantics checkers rely on for quiescence polls)."""
        s = Scheduler()
        seen = []
        s.post(4, lambda: seen.append(s.pending()))
        s.run()
        assert seen == [0]

    def test_event_beyond_ring_window_keeps_time_label(self):
        """An event more than a ring period ahead must run at its own
        time, not an alias one period early."""
        s = Scheduler()
        seen = []
        s.post(0, lambda: None)
        s.post(RING_SIZE + 13, lambda: seen.append(s.now))
        s.run()
        assert seen == [RING_SIZE + 13]


def _noop():
    pass


#: Ways a record joins the bucket being drained, each with the events
#: its cycle then runs, the posting record included.  A late record
#: brings its lane's sentinel; a late record's own posts run after
#: the lane.
JOINS = {
    "post": (lambda s: s.post(0, _noop), 2),
    "post_at": (lambda s: s.post_at(s.now, _noop), 2),
    "post_late": (lambda s: s.post_late(0, _noop), 3),
    "post+post_late": (lambda s: (s.post(0, _noop), s.post_late(0, _noop)), 4),
    "late_posts": (lambda s: s.post_late(0, s.post, (0, _noop)), 4),
    "late_posts_late": (lambda s: s.post_late(0, s.post_late, (0, _noop)), 5),
}


class TestObsCounters:
    def test_obs_counts_records_not_slots(self):
        """The snapshot counts records (two ring slots each); records
        past the window wait in the overflow heap."""
        s = Scheduler()
        for _ in range(3):
            s.post(5, _noop)
        s.post(9, _noop)
        for offset in (100, 101, 101):
            s.post(RING_SIZE + offset, _noop)
        snap = s.obs_snapshot()
        assert (snap["pending"], snap["overflow_pending"]) == (7, 3)
        s.run(until=RING_SIZE)
        snap = s.obs_snapshot()
        assert snap["events_processed"] == 4
        assert (snap["pending"], snap["overflow_pending"]) == (3, 3)
        assert snap["now"] == RING_SIZE
        s.run()
        snap = s.obs_snapshot()
        assert snap["events_processed"] == 7
        assert (snap["pending"], snap["overflow_pending"]) == (0, 0)
        assert snap["now"] == RING_SIZE + 101

    @pytest.mark.parametrize("joins", sorted(JOINS))
    def test_processed_counts_records_that_join_the_drain(self, joins):
        """Records posted into the cycle being drained run in that
        cycle, and each counts as one processed event."""
        post, events = JOINS[joins]
        s = Scheduler()
        s.post(5, post, (s,))
        s.run()
        snap = s.obs_snapshot()
        assert snap["events_processed"] == events
        assert (snap["now"], snap["pending"]) == (5, 0)


class TestLazyBuckets:
    """Ring buckets are created on first use; a never-touched slot is
    ``None`` and every scheduling path must still reach it."""

    def _slot(self, s, time):
        return s._ring[time & (RING_SIZE - 1)]

    def test_fresh_scheduler_holds_no_bucket_lists(self):
        s = Scheduler()
        assert len(s._ring) == RING_SIZE
        assert all(bucket is None for bucket in s._ring)

    @pytest.mark.parametrize("delay", [0, 5, DENSE_SPAN + 1, RING_SIZE - 1])
    @pytest.mark.parametrize("via", ["post", "post_at", "post_late"])
    def test_first_record_reaches_an_untouched_slot(self, via, delay):
        s = Scheduler()
        out = []
        assert self._slot(s, delay) is None
        if via == "post":
            s.post(delay, out.append, ("x",))
        elif via == "post_at":
            s.post_at(s.now + delay, out.append, ("x",))
        else:
            s.post_late(delay, out.append, ("x",))
        assert self._slot(s, delay)  # a list now holds the record
        assert s.pending() == (2 if via == "post_late" else 1)
        s.run()
        assert out == ["x"]
        assert s.now == delay
        assert s.pending() == 0

    def test_overflow_window_jump_migrates_into_untouched_slots(self):
        s = Scheduler()
        out = []
        times = [3 * RING_SIZE + 11, 3 * RING_SIZE + 700, 4 * RING_SIZE - 1]
        for t in reversed(times):
            s.post_at(t, lambda t=t: out.append((s.now, t)))
        s.post(RING_SIZE + 40, out.append, ((None, "post"),))
        assert all(bucket is None for bucket in s._ring)  # all in overflow
        s.run()
        assert out == [(None, "post")] + [(t, t) for t in times]
        assert s.pending() == 0


class _HeapScheduler:
    """Reference kernel: the plain ``(time, seq, callback, args)``
    binary heap the calendar queue replaced, plus late lanes.  Kept
    minimal — just the surface the equivalence tests and a
    whole-system run drive.

    The first ``post_late`` for a cycle posts a no-op sentinel, which
    counts as one pending event.  A cycle's late lane is spliced in
    (behind everything already run) only once no record for that cycle
    is left, so zero-delay posts from the lane run after it.  A bounded
    run whose queue drains before ``until`` leaves ``now`` at the last
    event.  ``halt()`` stops the run once the current cycle, late lane
    included, has finished; the flag is consumed even by a run that
    finds nothing queued.  ``clear()`` drops every queued record.
    """

    def __init__(self):
        self._heap = []
        self._seq = itertools.count()
        self._late = {}
        self.now = 0
        self.events_processed = 0
        self._halted = False

    def post_at(self, time, callback, args=()):
        heapq.heappush(self._heap, (time, next(self._seq), callback, args))

    def post(self, delay, callback, args=()):
        self.post_at(self.now + delay, callback, args)

    def post_late(self, delay, callback, args=()):
        time = self.now + delay
        if time not in self._late:
            self._late[time] = []
            self.post_at(time, _noop)
        self._late[time].append((callback, args))

    def pending(self):
        return len(self._heap) + sum(len(lane) for lane in self._late.values())

    def halt(self):
        self._halted = True

    def clear(self):
        self._heap.clear()
        self._late.clear()

    def run(self, until=None):
        heap = self._heap
        while True:
            if self._halted:
                self._halted = False
                return
            if not heap:
                return
            time = heap[0][0]
            if until is not None and time > until:
                self.now = until
                return
            while heap and heap[0][0] == time:
                _time, _seq, callback, args = heapq.heappop(heap)
                self.now = time
                self.events_processed += 1
                callback(*args)
                if not heap or heap[0][0] != time:
                    for late_callback, late_args in self._late.pop(time, ()):
                        self.post_at(time, late_callback, late_args)


class TestCalendarVsReferenceHeap:
    """Randomized equivalence: identical scenarios through the calendar
    queue and a reference heap must produce identical traces."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces_match(self, seed):
        def drive(sched):
            rng = random.Random(seed)
            trace = []

            def fire(tag, respawn):
                trace.append((sched.now, tag))
                if respawn > 0:
                    delay = rng.choice((0, 1, 2, 3, 17, RING_SIZE + 5, 4096))
                    sched.post(delay, fire, (f"{tag}.{respawn}", respawn - 1))

            for i in range(25):
                sched.post(rng.randrange(0, 3 * RING_SIZE), fire,
                           (str(i), rng.randrange(0, 4)))
            sched.run()
            return trace, sched.now

        calendar = drive(Scheduler())
        reference = drive(_HeapScheduler())
        assert calendar == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces_match_with_until(self, seed):
        def drive(sched):
            rng = random.Random(1000 + seed)
            trace = []

            def fire(tag):
                trace.append((sched.now, tag))
                if rng.random() < 0.5:
                    sched.post(rng.randrange(0, 2 * RING_SIZE), fire,
                               (tag + "'",))

            for i in range(20):
                sched.post(rng.randrange(0, 4 * RING_SIZE), fire, (str(i),))
            for until in (10, RING_SIZE, 2 * RING_SIZE + 31, None):
                sched.run(until=until)
                trace.append(("now", sched.now))
            return trace

        assert drive(Scheduler()) == drive(_HeapScheduler())


class TestClear:
    """``clear()`` drops every queued record unrun: ring buckets, the
    overflow heap and late lanes alike (the System clears its queue
    when it is freed)."""

    @pytest.mark.parametrize("kernel", [Scheduler, _HeapScheduler])
    def test_clear_drops_ring_overflow_and_late_records(self, kernel):
        s = kernel()
        calls = []
        s.post(1, calls.append, ("ring",))
        s.post(DENSE_SPAN + 5, calls.append, ("sparse",))
        s.post(3 * RING_SIZE, calls.append, ("overflow",))
        s.post_late(2, calls.append, ("late",))
        s.post_late(2 * RING_SIZE, calls.append, ("far-late",))
        assert s.pending() == 7  # five records and two late sentinels
        s.clear()
        assert s.pending() == 0
        s.run()
        assert calls == []
        assert s.now == 0

    def test_cleared_scheduler_runs_new_posts(self):
        s = Scheduler()
        s.post(3 * RING_SIZE, lambda: None)
        s.post(5, lambda: None)
        s.clear()
        out = []
        s.post(7, out.append, ("after",))
        s.run()
        assert out == ["after"] and s.now == 7
