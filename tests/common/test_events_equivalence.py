"""Randomized calendar-kernel vs heap-reference equivalence (hypothesis).

The calendar-queue :class:`Scheduler` (two-slot bucket records, batch
advance, inline drain cursor, lazy ring) must be observationally
identical to ``_HeapScheduler``, the plain ``(time, seq)`` binary heap
with late lanes in ``test_events.py``: same callback order, same
``now`` labels, same ``pending()`` at every event, same
``events_processed``.  Property-based scenarios mix the whole
scheduling surface — ``at``/``after`` (cancellable handles),
``post``/``post_at`` (flat fast path), ``post_late`` (late lanes),
``post``/``post_late`` chained from inside callbacks, cancellation
before and during the run, bounded runs, and sparse far-future delays
that force overflow-heap migration (into never-allocated ring buckets)
and quiescent window jumps.

Extends the hand-rolled harness in ``test_events.py``
(``TestCalendarVsReferenceHeap``); here hypothesis owns scenario
generation and shrinking.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.events import DENSE_SPAN, RING_SIZE, Scheduler
from tests.common.test_events import _HeapScheduler

#: Delay palette: same-cycle, dense-probe range, just past DENSE_SPAN
#: (sparse ``_times``-heap records), and past the ring window (overflow
#: heap + window jumps).
DELAYS = [0, 1, 2, 3, 7, 17, DENSE_SPAN + 1, 100, RING_SIZE + 5, 2 * RING_SIZE + 13, 4096]

#: Delays past the ring at offsets the dense palette never reaches, so
#: their records migrate out of the overflow heap into ring slots that
#: no earlier record touched (still-unallocated buckets).
FAR_DELAYS = [
    RING_SIZE + 700,
    2 * RING_SIZE + 1500,
    3 * RING_SIZE + 333,
    5 * RING_SIZE + 1,
]

#: Delays at the batch-advance threshold and beyond, none nearer: a
#: record posted DENSE_SPAN out must be found by the dense walk, and one
#: posted further out only through the ``_times`` heap, since nothing
#: earlier pulls the walk within reach of it.
EDGE_DELAYS = [DENSE_SPAN, DENSE_SPAN + 1, DENSE_SPAN + 2, 3 * DENSE_SPAN]


def _actions(delays):
    delay = st.sampled_from(delays)
    chain = st.integers(0, 3)
    return st.one_of(
        st.tuples(st.just("after"), delay, st.integers(0, 2)),
        st.tuples(st.just("at"), delay, st.integers(0, 2)),
        st.tuples(st.just("post"), delay, chain),
        st.tuples(st.just("post_at"), delay, chain),
        st.tuples(st.just("post_late"), delay, chain),
        st.tuples(st.just("cancel"), st.integers(0, 63)),
    )


_programs = st.lists(_actions(DELAYS), min_size=1, max_size=40)
_far_programs = st.lists(
    _actions(FAR_DELAYS + DELAYS[:4]), min_size=1, max_size=40
)
_edge_programs = st.lists(_actions(EDGE_DELAYS), min_size=1, max_size=12)


def _drive(sched, program, untils=()):
    """Run ``program`` on ``sched``; return the full observable trace.

    Respawning and chaining callbacks pick their delays deterministically
    from the program (tag arithmetic), so both kernels see byte-for-byte
    the same scenario.  A chained record alternates ``post`` and
    ``post_late`` at delays of 0-3 cycles, so late lanes get records
    from inside the cycle they run in, both before and after the splice.
    """
    trace = []
    handles = []
    tags = iter(range(10**9))

    def fire(tag, respawn):
        trace.append((sched.now, tag, sched.pending()))
        if respawn > 0:
            delay = DELAYS[(tag * 7 + respawn) % len(DELAYS)]
            handles.append(sched.after(delay, fire, tag + 1000, respawn - 1))
        # Deterministic mid-run cancellation of an arbitrary live handle.
        if handles and tag % 3 == 0:
            handles.pop(tag % len(handles)).cancel()

    def fire_post(tag, chain):
        trace.append((sched.now, tag, sched.pending()))
        if chain > 0:
            delay = DELAYS[(tag + chain) % 4]
            nxt = (tag + 1000, chain - 1)
            if (tag + chain) % 2:
                sched.post_late(delay, fire_post, nxt)
            else:
                sched.post(delay, fire_post, nxt)

    for op in program:
        kind = op[0]
        if kind == "after":
            handles.append(sched.after(op[1], fire, next(tags), op[2]))
        elif kind == "at":
            handles.append(sched.at(sched.now + op[1], fire, next(tags), op[2]))
        elif kind == "post":
            sched.post(op[1], fire_post, (next(tags), op[2]))
        elif kind == "post_at":
            sched.post_at(sched.now + op[1], fire_post, (next(tags), op[2]))
        elif kind == "post_late":
            sched.post_late(op[1], fire_post, (next(tags), op[2]))
        else:  # cancel
            if handles:
                handles.pop(op[1] % len(handles)).cancel()

    for until in untils:
        sched.run(until=until)
        trace.append(("now", sched.now, sched.pending()))
    sched.run()
    return trace, sched.now, sched.events_processed, sched.pending()


@settings(deadline=None, max_examples=60)
@given(program=_programs)
def test_calendar_matches_heap(program):
    assert _drive(Scheduler(), program) == _drive(_HeapScheduler(), program)


@settings(deadline=None, max_examples=60)
@given(program=_far_programs, ring_size=st.sampled_from([64, 256, RING_SIZE]))
def test_calendar_matches_heap_far_delays(program, ring_size):
    """Delays of one to several ring periods: records reach the ring
    only by overflow migration, mostly into never-allocated buckets
    (on the small rings every far delay spans many window jumps)."""
    assert _drive(Scheduler(ring_size), program) == _drive(
        _HeapScheduler(), program
    )


@settings(deadline=None, max_examples=40)
@given(program=_edge_programs)
@example(program=[("post", DENSE_SPAN + 1, 0)])
def test_calendar_matches_heap_edge_delays(program):
    """Dense/sparse boundary: programs whose own records all lie at or
    past DENSE_SPAN, so the drain cursor must switch from the bounded
    walk to the ``_times`` heap at exactly the right delay."""
    assert _drive(Scheduler(), program) == _drive(_HeapScheduler(), program)


@settings(deadline=None, max_examples=40)
@given(
    program=_programs,
    untils=st.lists(
        st.sampled_from([10, DENSE_SPAN, RING_SIZE, 2 * RING_SIZE + 31, 5000]),
        min_size=1,
        max_size=3,
    ),
)
def test_calendar_matches_heap_with_until(program, untils):
    """Bounded runs: ``until`` cuts mid-window and mid-overflow (or
    past the last event, leaving ``now`` there); the final unbounded
    run drains the rest.  ``until`` values must be non-decreasing to
    be meaningful on both kernels."""
    untils = sorted(untils)
    assert _drive(Scheduler(), program, untils) == _drive(
        _HeapScheduler(), program, untils
    )


@settings(deadline=None, max_examples=30)
@given(
    delays=st.lists(
        st.sampled_from([RING_SIZE + 1, 3 * RING_SIZE, 5 * RING_SIZE + 77, 4096, 65536]),
        min_size=1,
        max_size=12,
    ),
    cancel_mask=st.integers(0, 2**12 - 1),
)
def test_sparse_window_jumps_match(delays, cancel_mask):
    """Far-future-only scenarios: every event migrates through the
    overflow heap and the drain cursor batch-advances across long
    quiescent spans; a subset is cancelled before running."""

    def drive(sched):
        trace = []
        handles = [
            sched.after(d, lambda i=i: trace.append((sched.now, i)))
            for i, d in enumerate(delays)
        ]
        for i, handle in enumerate(handles):
            if cancel_mask & (1 << i):
                handle.cancel()
        sched.run()
        return trace, sched.now, sched.events_processed, sched.pending()

    assert drive(Scheduler()) == drive(_HeapScheduler())
