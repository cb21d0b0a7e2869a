"""Randomized calendar-kernel vs heap-reference equivalence (hypothesis).

The calendar-queue :class:`Scheduler` (two-slot bucket records, batch
advance, inline drain cursor, lazy ring) must be observationally
identical to ``_HeapScheduler``, the plain ``(time, seq)`` binary heap
with late lanes in ``test_events.py``: same callback order, same
``now`` labels, same ``pending()`` at every event, same
``events_processed``.  Property-based scenarios mix the whole
scheduling surface — ``post``/``post_at``, ``post_late`` (late lanes),
records re-posted and chained from inside callbacks, ``halt()`` from
inside a record, bounded runs, and sparse far-future delays that force
overflow-heap migration (into never-allocated ring buckets) and
quiescent window jumps.

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
        st.tuples(st.just("respawn"), delay, st.integers(0, 2)),
        st.tuples(st.just("post"), delay, chain),
        st.tuples(st.just("post_at"), delay, chain),
        st.tuples(st.just("post_late"), delay, chain),
    )


_programs = st.lists(_actions(DELAYS), min_size=1, max_size=40)
_far_programs = st.lists(
    _actions(FAR_DELAYS + DELAYS[:4]), min_size=1, max_size=40
)
_edge_programs = st.lists(_actions(EDGE_DELAYS), min_size=1, max_size=12)


def _drive(sched, program, untils=(), halts=()):
    """Run ``program`` on ``sched``; return the full observable trace.

    Respawning and chaining callbacks pick their delays deterministically
    from the program (tag arithmetic), so both kernels see byte-for-byte
    the same scenario.  A respawning record re-posts itself at any delay
    of the full :data:`DELAYS` palette, far ones included.  A chained
    record alternates ``post`` and ``post_late`` at delays of 0-3
    cycles, so late lanes get records from inside the cycle they run
    in, both before and after the splice.  The records whose run index
    (0 = the first record to run) is in ``halts`` call ``halt()`` and
    post one zero-delay record to each lane.  After the bounded
    ``untils`` runs, ``run()`` is re-entered until the queue is empty
    or a run makes no progress; ``now`` and ``pending()`` are logged
    at every return.
    """
    trace = []
    tags = iter(range(10**9))
    runs = iter(range(10**9))

    def note(tag):
        trace.append((sched.now, tag, sched.pending()))

    def log(tag):
        note(tag)
        if next(runs) in halts:
            # The rest of the stop cycle, late lane included, still
            # runs before run() returns.
            sched.halt()
            sched.post(0, note, ("after-halt",))
            sched.post_late(0, note, ("late-after-halt",))

    def fire(tag, respawn):
        log(tag)
        if respawn > 0:
            delay = DELAYS[(tag * 7 + respawn) % len(DELAYS)]
            sched.post(delay, fire, (tag + 1000, respawn - 1))

    def fire_post(tag, chain):
        log(tag)
        if chain > 0:
            delay = DELAYS[(tag + chain) % 4]
            nxt = (tag + 1000, chain - 1)
            if (tag + chain) % 2:
                sched.post_late(delay, fire_post, nxt)
            else:
                sched.post(delay, fire_post, nxt)

    for op in program:
        kind = op[0]
        if kind == "respawn":
            sched.post(op[1], fire, (next(tags), op[2]))
        elif kind == "post":
            sched.post(op[1], fire_post, (next(tags), op[2]))
        elif kind == "post_at":
            sched.post_at(sched.now + op[1], fire_post, (next(tags), op[2]))
        else:  # post_late
            sched.post_late(op[1], fire_post, (next(tags), op[2]))

    for until in untils:
        sched.run(until=until)
        trace.append(("now", sched.now, sched.pending()))
    while True:
        before = sched.events_processed
        sched.run()
        trace.append(("now", sched.now, sched.pending()))
        if not sched.pending() or sched.events_processed == before:
            break  # drained, or stuck with records that never run
    return trace, sched.now, sched.events_processed


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


@settings(deadline=None, max_examples=60)
@given(
    program=_programs,
    halts=st.sets(st.integers(0, 40), min_size=1, max_size=3),
)
def test_calendar_matches_heap_with_halt(program, halts):
    """``halt()`` from inside a record — normal or late, first in its
    cycle or not — stops both kernels after the same cycle, with the
    same ``now`` and ``pending()``; re-entering ``run()`` resumes
    from there."""
    assert _drive(Scheduler(), program, halts=halts) == _drive(
        _HeapScheduler(), program, halts=halts
    )


@settings(deadline=None, max_examples=30)
@given(
    delays=st.lists(
        st.sampled_from([RING_SIZE + 1, 3 * RING_SIZE, 5 * RING_SIZE + 77, 4096, 65536]),
        min_size=1,
        max_size=12,
    ),
)
def test_sparse_window_jumps_match(delays):
    """Far-future-only scenarios: every event migrates through the
    overflow heap and the drain cursor batch-advances across long
    quiescent spans."""

    def drive(sched):
        trace = []
        for i, d in enumerate(delays):
            sched.post(d, lambda i=i: trace.append((sched.now, i)))
        sched.run()
        return trace, sched.now, sched.events_processed, sched.pending()

    assert drive(Scheduler()) == drive(_HeapScheduler())
