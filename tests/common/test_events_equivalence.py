"""Randomized kernel vs heap-reference equivalence (hypothesis).

The kernel's :class:`Scheduler` must be observationally identical to
``_HeapScheduler``, the plain ``(time, seq)`` binary heap with late
lanes in ``test_events.py``: same callback order, same ``now`` labels,
same ``pending()`` at every event, same ``events_processed``.
Property-based scenarios mix the whole scheduling surface —
``post``/``post_at``, ``post_late`` (late lanes), records re-posted and
chained from inside callbacks, ``halt()`` from inside a record, records
that raise (after which ``run()`` is re-entered), bounded runs, and
far-future delays across long quiescent spans.

Extends the hand-rolled harness in ``test_events.py``
(``TestKernelVsReferenceHeap``); here hypothesis owns scenario
generation and shrinking.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.common.events import Scheduler
from tests.common.test_events import _HeapScheduler

#: Delay palette: same-cycle, a few cycles, tens of cycles, and far
#: delays (timers and heartbeats) thousands of cycles out.
DELAYS = [0, 1, 2, 3, 7, 17, 65, 100, 2053, 4109, 4096]

#: Far delays only, at offsets the near palette never reaches.
FAR_DELAYS = [2748, 5596, 6477, 10241]

#: Sparse delays, none nearer than 64 cycles: a program's own records
#: sit in a few cycles with quiescent spans between them.
EDGE_DELAYS = [64, 65, 66, 192]


def _actions(delays):
    delay = st.sampled_from(delays)
    chain = st.integers(0, 3)
    return st.one_of(
        st.tuples(st.just("respawn"), delay, st.integers(0, 2)),
        st.tuples(st.just("post"), delay, chain),
        st.tuples(st.just("post_at"), delay, chain),
        st.tuples(st.just("post_late"), delay, chain),
        st.tuples(st.just("raise"), delay),
    )


_programs = st.lists(_actions(DELAYS), min_size=1, max_size=40)
_far_programs = st.lists(
    _actions(FAR_DELAYS + DELAYS[:4]), min_size=1, max_size=40
)
_edge_programs = st.lists(_actions(EDGE_DELAYS), min_size=1, max_size=12)


class _Raised(Exception):
    """Raised by a program's ``raise`` record."""


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
    post one zero-delay record to each lane.  A ``raise`` record raises
    the first time it is called (a correct kernel calls it only once);
    the error is logged and ``run()`` re-entered with the same bound.
    After the bounded ``untils`` runs, ``run()`` is re-entered until the
    queue is empty or a run makes no progress; ``now`` and ``pending()``
    are logged at every return.
    """
    trace = []
    tags = iter(range(10**9))
    runs = iter(range(10**9))
    raised = set()

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

    def fire_raise(tag):
        log(tag)
        if tag not in raised:
            raised.add(tag)
            raise _Raised(tag)

    def run(until=None):
        while True:
            try:
                sched.run(until=until)
                return
            except _Raised as error:
                trace.append(("raised", sched.now, error.args[0], sched.pending()))

    for op in program:
        kind = op[0]
        if kind == "respawn":
            sched.post(op[1], fire, (next(tags), op[2]))
        elif kind == "post":
            sched.post(op[1], fire_post, (next(tags), op[2]))
        elif kind == "post_at":
            sched.post_at(sched.now + op[1], fire_post, (next(tags), op[2]))
        elif kind == "post_late":
            sched.post_late(op[1], fire_post, (next(tags), op[2]))
        else:  # raise
            sched.post(op[1], fire_raise, (next(tags),))

    for until in untils:
        run(until)
        trace.append(("now", sched.now, sched.pending()))
    while True:
        before = sched.events_processed
        run()
        trace.append(("now", sched.now, sched.pending()))
        if not sched.pending() or sched.events_processed == before:
            break  # drained, or stuck with records that never run
    return trace, sched.now, sched.events_processed


@settings(deadline=None, max_examples=60)
@given(program=_programs)
@example(program=[("post", 5, 0), ("raise", 5), ("post", 5, 0)])
@example(program=[("post_late", 5, 0), ("raise", 5)])
def test_kernel_matches_heap(program):
    """The two explicit examples are a record raising in the middle of
    its cycle (the records after it must run once, the ones before it
    not again) and a raising record that is its cycle's last normal
    record (the cycle's late lane must still run)."""
    assert _drive(Scheduler(), program) == _drive(_HeapScheduler(), program)


@settings(deadline=None, max_examples=60)
@given(program=_far_programs)
def test_kernel_matches_heap_far_delays(program):
    """Delays of thousands of cycles mixed with same-cycle and
    next-cycle ones: long quiescent spans between bursts."""
    assert _drive(Scheduler(), program) == _drive(_HeapScheduler(), program)


@settings(deadline=None, max_examples=40)
@given(program=_edge_programs)
@example(program=[("post", 65, 0)])
def test_kernel_matches_heap_edge_delays(program):
    """Sparse programs: every record the program posts lies at least
    64 cycles out, so the queue runs a few isolated cycles."""
    assert _drive(Scheduler(), program) == _drive(_HeapScheduler(), program)


@settings(deadline=None, max_examples=40)
@given(
    program=_programs,
    untils=st.lists(
        st.sampled_from([10, 64, 2048, 4127, 5000]),
        min_size=1,
        max_size=3,
    ),
)
def test_kernel_matches_heap_with_until(program, untils):
    """Bounded runs: ``until`` cuts between populated cycles (or past
    the last event, leaving ``now`` there); the final unbounded run
    drains the rest.  ``until`` values must be non-decreasing to be
    meaningful on both kernels."""
    untils = sorted(untils)
    assert _drive(Scheduler(), program, untils) == _drive(
        _HeapScheduler(), program, untils
    )


@settings(deadline=None, max_examples=60)
@given(
    program=_programs,
    halts=st.sets(st.integers(0, 40), min_size=1, max_size=3),
)
def test_kernel_matches_heap_with_halt(program, halts):
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
        st.sampled_from([2049, 6144, 10317, 4096, 65536]),
        min_size=1,
        max_size=12,
    ),
)
def test_far_only_programs_match(delays):
    """Far-future-only scenarios: every cycle that runs lies thousands
    of cycles past the one before it."""

    def drive(sched):
        trace = []
        for i, d in enumerate(delays):
            sched.post(d, lambda i=i: trace.append((sched.now, i)))
        sched.run()
        return trace, sched.now, sched.events_processed, sched.pending()

    assert drive(Scheduler()) == drive(_HeapScheduler())
