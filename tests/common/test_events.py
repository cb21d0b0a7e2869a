"""Discrete-event scheduler."""

import heapq
import importlib
import itertools
import random

import pytest

from repro.common.errors import SimulationError
from repro.common.events import Scheduler

#: A delay far beyond any pipeline, cache or link latency, standing for
#: checkpoint timers and heartbeats.
FAR = 6144


def _noop():
    pass


class _HeapScheduler:
    """Reference kernel: a plain ``(time, seq, callback, args)`` binary
    heap plus late lanes, written for clarity rather than speed.  Kept
    minimal — just the surface the equivalence tests and a whole-system
    run drive.

    The first ``post_late`` for a cycle posts a no-op sentinel, which
    counts as one pending event.  A cycle's late lane is spliced in
    (behind everything already run) only once no record for that cycle
    is left, so zero-delay posts from the lane run after it; a run
    re-entered after a callback raised splices the lane of ``now`` first
    if that callback was its cycle's last record.  A bounded run whose
    queue drains before ``until`` leaves ``now`` at the last event.
    ``halt()`` stops the run once the current cycle, late lane included,
    has finished; the flag is consumed even by a run that finds nothing
    queued.  ``clear()`` drops every queued record.  An ``until`` below
    ``now`` leaves ``now`` unchanged.
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

    def _splice(self, time):
        for late_callback, late_args in self._late.pop(time, ()):
            self.post_at(time, late_callback, late_args)

    def run(self, until=None):
        heap = self._heap
        while True:
            if self._halted:
                self._halted = False
                return
            if not heap or heap[0][0] != self.now:
                self._splice(self.now)
            if not heap:
                return
            time = heap[0][0]
            if until is not None and time > until:
                self.now = max(self.now, until)
                return
            while heap and heap[0][0] == time:
                _time, _seq, callback, args = heapq.heappop(heap)
                self.now = time
                self.events_processed += 1
                callback(*args)
                if not heap or heap[0][0] != time:
                    self._splice(time)


#: The kernel and its reference: every test of the kernel's contract
#: runs on both.
KERNELS = [Scheduler, _HeapScheduler]


@pytest.mark.parametrize("kernel", KERNELS)
class TestScheduling:
    def test_runs_in_time_order(self, kernel):
        s = kernel()
        out = []
        s.post(10, out.append, ("b",))
        s.post(5, out.append, ("a",))
        s.post(20, out.append, ("c",))
        s.run()
        assert out == ["a", "b", "c"]
        assert s.now == 20

    def test_ties_break_by_insertion_order(self, kernel):
        s = kernel()
        out = []
        for tag in "abc":
            s.post(7, out.append, (tag,))
        s.run()
        assert out == ["a", "b", "c"]

    def test_zero_delay_runs_at_current_time(self, kernel):
        s = kernel()
        out = []
        s.post(0, out.append, (1,))
        s.run()
        assert s.now == 0 and out == [1]

    def test_events_scheduled_during_run(self, kernel):
        s = kernel()
        out = []

        def chain(n):
            out.append(n)
            if n < 3:
                s.post(1, chain, (n + 1,))

        s.post(0, chain, (0,))
        s.run()
        assert out == [0, 1, 2, 3]
        assert s.now == 3


class TestRejections:
    """Only the kernel checks its arguments; the reference is trusted
    to be driven correctly."""

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

    def test_negative_late_delay_rejected(self):
        s = Scheduler()
        with pytest.raises(SimulationError):
            s.post_late(-1, lambda: None)
        assert s.pending() == 0

    def test_bound_below_now_keeps_the_past_closed(self):
        """After ``run(until)`` with a bound below ``now``, a time
        before the records that already ran is still in the past."""
        s = Scheduler()
        s.post(10, lambda: None)
        s.post(20, lambda: None)
        s.run(until=15)
        s.run(until=5)
        with pytest.raises(SimulationError):
            s.post_at(7, lambda: None)


class TestSurface:
    """The kernel offers only what the simulated machine calls: one
    record shape, no handles, no cancellation, no predicate stops."""

    @pytest.mark.parametrize("name", ["at", "after", "step"])
    def test_retired_method_is_gone(self, name):
        assert not hasattr(Scheduler, name)

    @pytest.mark.parametrize("module", ["repro.common.events", "repro.common"])
    def test_no_event_handle_class(self, module):
        assert not hasattr(importlib.import_module(module), "Event")

    @pytest.mark.parametrize("name", ["RING_SIZE", "DENSE_SPAN"])
    def test_no_queue_tuning_constant(self, name):
        assert not hasattr(importlib.import_module("repro.common.events"), name)

    def test_constructor_takes_no_arguments(self):
        with pytest.raises(TypeError):
            Scheduler(2048)

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


@pytest.mark.parametrize("kernel", KERNELS)
class TestBounds:
    def test_until_stops_before_later_events(self, kernel):
        s = kernel()
        out = []
        s.post(5, out.append, ("a",))
        s.post(50, out.append, ("b",))
        s.run(until=10)
        assert out == ["a"]
        assert s.now == 10
        s.run()
        assert out == ["a", "b"]

    def test_events_processed_counter(self, kernel):
        s = kernel()
        for i in range(5):
            s.post(i, lambda: None)
        s.run()
        assert s.events_processed == 5

    def test_until_between_populated_cycles(self, kernel):
        s = kernel()
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

    def test_until_before_a_far_event(self, kernel):
        s = kernel()
        out = []
        s.post(FAR, out.append, ("far",))
        s.run(until=10)
        assert out == []
        assert s.now == 10
        assert s.pending() == 1
        s.run()
        assert out == ["far"]
        assert s.now == FAR

    def test_queue_drained_before_until_leaves_now_at_last_event(self, kernel):
        s = kernel()
        s.post(7, lambda: None)
        s.run(until=100)
        assert s.now == 7
        assert s.pending() == 0


#: Ways a record joins the cycle being run, each with the events
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


@pytest.mark.parametrize("kernel", KERNELS)
class TestKernelEdges:
    def test_after_zero_runs_same_cycle_in_seq_order(self, kernel):
        """A zero-delay post from inside a callback joins the *current*
        cycle, behind everything already queued for it."""
        s = kernel()
        out = []

        def first():
            out.append("first")
            s.post(0, out.append, ("spawned",))

        s.post(5, first)
        s.post(5, out.append, ("second",))
        s.run()
        assert out == ["first", "second", "spawned"]
        assert s.now == 5

    def test_pending_excludes_executing_event(self, kernel):
        """Inside a callback the event being executed is already popped
        (checkers rely on this for quiescence polls): with two normal
        records and a late one (plus its sentinel) at one cycle, each
        callback sees only the records still to run."""
        s = kernel()
        seen = []

        def note():
            seen.append(s.pending())

        s.post_late(3, note)
        s.post(3, note)
        s.post(3, note)
        assert s.pending() == 4
        s.run()
        assert seen == [2, 1, 0]
        assert s.events_processed == 4

    def test_until_below_now_keeps_now(self, kernel):
        """Time never runs backwards: a bound below ``now`` runs
        nothing and leaves ``now`` where the last run left it, so a
        record posted next still runs before the later one."""
        s = kernel()
        out = []
        s.post(10, out.append, (10,))
        s.post(20, out.append, (20,))
        s.run(until=15)
        s.run(until=5)
        assert (s.now, out, s.pending()) == (15, [10], 1)
        s.post(0, out.append, ("next",))
        s.run()
        assert out == [10, "next", 20]
        assert s.now == 20

    def test_far_event_keeps_its_time_label(self, kernel):
        s = kernel()
        seen = []
        s.post(0, lambda: None)
        s.post(FAR + 13, lambda: seen.append(s.now))
        s.run()
        assert seen == [FAR + 13]

    @pytest.mark.parametrize("joins", sorted(JOINS))
    def test_processed_counts_records_that_join_the_drain(self, kernel, joins):
        """Records posted into the cycle being run run in that cycle,
        and each counts as one processed event."""
        post, events = JOINS[joins]
        s = kernel()
        s.post(5, post, (s,))
        s.run()
        assert s.events_processed == events
        assert (s.now, s.pending()) == (5, 0)


class TestObsCounters:
    def test_obs_counts_records_not_slots(self):
        """The snapshot counts queued records, near and far alike, and
        is exactly ``events_processed``, ``pending`` and ``now``."""
        s = Scheduler()
        for _ in range(3):
            s.post(5, _noop)
        s.post(9, _noop)
        for offset in (100, 101, 101):
            s.post(FAR + offset, _noop)
        snap = s.obs_snapshot()
        assert snap == {"events_processed": 0, "pending": 7, "now": 0}
        s.run(until=FAR)
        assert s.obs_snapshot() == {
            "events_processed": 4,
            "pending": 3,
            "now": FAR,
        }
        s.run()
        assert s.obs_snapshot() == {
            "events_processed": 7,
            "pending": 0,
            "now": FAR + 101,
        }


class Boom(Exception):
    """Raised by a test callback."""


def _raise():
    raise Boom


@pytest.mark.parametrize("kernel", KERNELS)
class TestReentryAfterRaise:
    """A callback that raises leaves the queue consistent: the raising
    record is gone, and a re-entered ``run()`` runs every remaining
    record exactly once, in order."""

    def test_records_after_the_raiser_run_once(self, kernel):
        s = kernel()
        out = []
        s.post(5, out.append, ("A",))
        s.post(5, _raise)
        s.post(5, out.append, ("C",))
        with pytest.raises(Boom):
            s.run()
        assert (out, s.now, s.pending()) == (["A"], 5, 1)
        s.run()
        assert out == ["A", "C"]
        assert (s.pending(), s.events_processed) == (0, 3)

    def test_lane_stranded_by_the_last_record_runs(self, kernel):
        """The raiser was its cycle's last normal record, so the cycle's
        late lane had not joined yet: the re-entered run runs it."""
        s = kernel()
        out = []
        s.post_late(5, out.append, ("X",))
        s.post(5, _raise)
        with pytest.raises(Boom):
            s.run()
        assert (out, s.pending()) == ([], 1)
        s.run()
        assert (out, s.now) == (["X"], 5)
        assert (s.pending(), s.events_processed) == (0, 3)

    def test_zero_delay_post_of_the_raiser_runs_before_the_lane(self, kernel):
        s = kernel()
        out = []

        def post_then_raise():
            s.post(0, out.append, ("Z",))
            raise Boom

        s.post_late(5, out.append, ("X",))
        s.post(5, post_then_raise)
        s.post(9, out.append, ("later",))
        with pytest.raises(Boom):
            s.run()
        s.run()
        assert out == ["Z", "X", "later"]
        assert s.pending() == 0

    def test_raise_in_the_lane_keeps_the_rest_of_the_lane(self, kernel):
        s = kernel()
        out = []
        s.post_late(5, out.append, ("W",))
        s.post_late(5, _raise)
        s.post_late(5, out.append, ("Y",))
        with pytest.raises(Boom):
            s.run()
        assert (out, s.pending()) == (["W"], 1)
        s.run()
        assert out == ["W", "Y"]
        assert (s.pending(), s.events_processed) == (0, 4)

    def test_halt_then_raise_stops_the_re_entered_run(self, kernel):
        """The flag set before the raise still stops the next run at
        once; the run after it finishes the cycle and goes on."""
        s = kernel()
        out = []

        def halt_then_raise():
            s.halt()
            raise Boom

        s.post_late(5, out.append, ("X",))
        s.post(5, halt_then_raise)
        s.post(6, out.append, ("next",))
        with pytest.raises(Boom):
            s.run()
        s.run()
        assert out == []
        s.run()
        assert out == ["X", "next"]


class TestKernelVsReferenceHeap:
    """Randomized equivalence: identical scenarios through the kernel
    and the reference heap must produce identical traces."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_traces_match(self, seed):
        def drive(sched):
            rng = random.Random(seed)
            trace = []

            def fire(tag, respawn):
                trace.append((sched.now, tag))
                if respawn > 0:
                    delay = rng.choice((0, 1, 2, 3, 17, FAR + 5, 4096))
                    sched.post(delay, fire, (f"{tag}.{respawn}", respawn - 1))

            for i in range(25):
                sched.post(rng.randrange(0, 3 * FAR), fire,
                           (str(i), rng.randrange(0, 4)))
            sched.run()
            return trace, sched.now

        kernel = drive(Scheduler())
        reference = drive(_HeapScheduler())
        assert kernel == reference

    @pytest.mark.parametrize("seed", range(4))
    def test_random_traces_match_with_until(self, seed):
        def drive(sched):
            rng = random.Random(1000 + seed)
            trace = []

            def fire(tag):
                trace.append((sched.now, tag))
                if rng.random() < 0.5:
                    sched.post(rng.randrange(0, 2 * FAR), fire,
                               (tag + "'",))

            for i in range(20):
                sched.post(rng.randrange(0, 4 * FAR), fire, (str(i),))
            for until in (10, FAR, 2 * FAR + 31, None):
                sched.run(until=until)
                trace.append(("now", sched.now))
            return trace

        assert drive(Scheduler()) == drive(_HeapScheduler())


@pytest.mark.parametrize("kernel", KERNELS)
class TestClear:
    """``clear()`` drops every queued record unrun, near, far and late
    alike (the System clears its queue when it is freed), and keeps
    ``now``."""

    def test_clear_drops_near_far_and_late_records(self, kernel):
        s = kernel()
        calls = []
        s.post(1, calls.append, ("near",))
        s.post(70, calls.append, ("later",))
        s.post(3 * FAR, calls.append, ("far",))
        s.post_late(2, calls.append, ("late",))
        s.post_late(2 * FAR, calls.append, ("far-late",))
        assert s.pending() == 7  # five records and two late sentinels
        s.clear()
        assert s.pending() == 0
        s.run()
        assert calls == []
        assert s.now == 0

    def test_cleared_scheduler_runs_new_posts(self, kernel):
        s = kernel()
        s.post(3 * FAR, lambda: None)
        s.post(5, lambda: None)
        s.clear()
        out = []
        s.post(7, out.append, ("after",))
        s.run()
        assert out == ["after"] and s.now == 7

    def test_clear_keeps_now(self, kernel):
        s = kernel()
        s.post(12, lambda: None)
        s.post(40, lambda: None)
        s.post_late(40, lambda: None)
        s.run(until=20)
        s.clear()
        assert (s.now, s.pending()) == (20, 0)
        s.post(0, lambda: None)
        s.run()
        assert s.now == 20
