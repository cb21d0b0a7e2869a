"""Wait/notify plane (wakeup kernel)."""

import pytest

from repro.common.events import Scheduler
from repro.common.waitsets import RETRY_PERIOD, WaitSet, WakeHub
from tests.common.test_events import _HeapScheduler

#: Kernels the wait plane must behave identically on: the kernel and
#: the heap reference kernel the equivalence tests use.
KERNELS = {
    "kernel": Scheduler,
    "heap": _HeapScheduler,
}


@pytest.fixture(params=list(KERNELS))
def new_sched(request):
    return KERNELS[request.param]


@pytest.fixture
def sched(new_sched):
    return new_sched()


class PollingHub(WakeHub):
    """Reference retry regime: fixed-period polls, no subscriptions.

    Every parked check is re-checked at each point of its retry grid
    until it succeeds, and notifies are ignored.  The agendas are the
    hub's own, so a wake hub must check the same gates at the same
    cycles in the same order; only the event count may differ.
    """

    __slots__ = ()

    def park(self, ws, callback, args):
        w = super().park(ws, callback, args)
        if not w.armed:
            self._arm(w, self._sched.now + RETRY_PERIOD)
        return w

    def notify(self, ws):
        self.notifies += 1



class Gate:
    """A parkable check over an explicit boolean condition."""

    def __init__(self, ws, log, name):
        self.ws = ws
        self.log = log
        self.name = name
        self.open = False

    def check(self):
        if not self.open:
            self.ws.park(self.check)
            return
        self.log.append((self.ws.hub._sched.now, self.name))


class TestWakeups:
    def test_notify_wakes_at_next_grid_point(self, sched):
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        log = []
        gate = Gate(ws, log, "g")
        sched.post(0, gate.check)

        def release():
            gate.open = True
            ws.notify()

        sched.post(5, release)
        sched.run()
        # Parked at 0; grid is {2, 4, 6, ...}; release at 5 wakes the
        # check at 6 — the first poll that would have seen it.
        assert log == [(6, "g")]
        assert hub.wakes == 1 and hub.parked_now == 0

    def test_no_events_between_park_and_notify(self, sched):
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        gate = Gate(ws, [], "g")
        sched.post(0, gate.check)
        sched.run()
        # Blocked forever with no notify: the queue drains (no polls).
        assert sched.pending() == 0
        assert hub.parked_now == 1

    def test_agenda_runs_in_global_park_order(self, sched):
        # Waiters from *different* wait sets parked in order b, a, c
        # and all notified for the same cycle must check in park order.
        hub = WakeHub(sched)
        log = []
        gates = {}
        for name in "bac":
            ws = WaitSet(hub)
            gates[name] = Gate(ws, log, name)
        for name in "bac":
            sched.post(0, gates[name].check)

        def release_all():
            for g in gates.values():
                g.open = True
                g.ws.notify()

        sched.post(3, release_all)
        sched.run()
        assert [name for _t, name in log] == ["b", "a", "c"]
        assert len({t for t, _ in log}) == 1

    def test_agenda_interleaves_after_posted_events(self, sched):
        # A cycle's agenda runs in the late lane: after every normal
        # event of that cycle, including delay-0 posts made during it.
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        log = []
        gate = Gate(ws, log, "woke")
        sched.post(0, gate.check)

        def release():
            gate.open = True
            ws.notify()
            log.append((sched.now, "release"))
            sched.post(0, lambda: log.append((sched.now, "chained")))

        sched.post(4, release)
        sched.post(4, lambda: log.append((sched.now, "posted")))
        sched.run()
        assert log == [
            (4, "release"),
            (4, "posted"),
            (4, "chained"),
            (4, "woke"),
        ]

    def test_notify_without_waiters_is_noop(self, sched):
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        ws.notify()
        sched.run()
        assert hub.notifies == 1
        assert sched.pending() == 0

    def test_park_after_notify_waits_for_next_notify(self, sched):
        # A notify carries no memory: a check parked after it stays
        # parked until the *next* notify.
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        log = []
        gate = Gate(ws, log, "g")
        sched.post(2, ws.notify)
        sched.post(4, gate.check)

        def release():
            gate.open = True
            ws.notify()

        sched.post(9, release)
        sched.run()
        assert log == [(10, "g")]  # grid {6, 8, 10}: first point >= 9

    def test_failed_check_reparks_same_episode(self, sched):
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        log = []
        gate = Gate(ws, log, "g")
        sched.post(0, gate.check)
        # Two spurious notifies, then the real one.
        sched.post(3, ws.notify)
        sched.post(7, ws.notify)

        def release():
            gate.open = True
            ws.notify()

        sched.post(11, release)
        sched.run()
        assert log == [(12, "g")]
        assert hub.waits_parked == 1  # one episode, despite re-parks
        assert hub.spurious_wakeups == 2
        assert hub.wakes == 1
        snap = hub.obs_snapshot()
        assert snap["wait_cycles"] == {
            "count": 1,
            "sum": 12,
            "min": 12,
            "max": 12,
        }

    def test_at_most_one_pending_retry_per_record(self, sched):
        # Two paths kicking the same stalled check must not stack a
        # second episode (generalised ``_verify_retry_scheduled``).
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        log = []
        gate = Gate(ws, log, "g")
        w1 = ws.park(gate.check)
        w2 = ws.park(gate.check)
        assert w1 is w2
        assert len(ws.waiters) == 1
        assert hub.waits_parked == 1

    def test_parked_waiters_are_not_pending_events(self, sched):
        hub = WakeHub(sched)
        ws = WaitSet(hub)
        for i in range(5):
            ws.park(lambda i=i: None, (i,))
        # Five parked episodes, zero scheduler events.
        assert sched.pending() == 0
        ws.notify()
        # One shared agenda record (plus its lane sentinel), not five.
        assert sched.pending() == 2

    def test_polling_reference_rechecks_every_period_and_ignores_notify(
        self, sched
    ):
        hub = PollingHub(sched)
        ws = WaitSet(hub)
        checks = []

        class PollGate(Gate):
            def check(self):
                checks.append(self.ws.hub._sched.now)
                super().check()

        gate = PollGate(ws, [], "g")
        sched.post(0, gate.check)
        sched.post(3, ws.notify)  # ignored by the poller

        def release():
            gate.open = True

        sched.post(9, release)
        sched.run()
        # Checked on every grid point until success — no early wake
        # from the notify at 3.
        assert checks == [0, 2, 4, 6, 8, 10]
        assert hub.notifies == 1 and hub.wakes == 1

    def test_wake_and_poll_check_cycles_match(self, new_sched):
        # The architectural core of the regime identity: the successful
        # check runs at the same cycle under wakeups and under polling.
        def run(hub_class):
            s = new_sched()
            hub = hub_class(s)
            ws = WaitSet(hub)
            log = []
            gate = Gate(ws, log, "g")
            s.post(0, gate.check)

            def release():
                gate.open = True
                ws.notify()

            s.post(13, release)
            s.run()
            return log

        assert run(WakeHub) == run(PollingHub)


class TestHalt:
    def test_halt_stops_at_end_of_cycle(self, sched):
        out = []
        sched.post(1, out.append, (1,))
        sched.post(3, lambda: (out.append(3), sched.halt()))
        sched.post(3, out.append, ("same-cycle",))
        sched.post(5, out.append, (5,))
        sched.run()
        # The halting cycle finishes (same-cycle events still run);
        # later cycles do not.
        assert out == [1, 3, "same-cycle"]
        assert sched.now == 3
        sched.run()
        assert out[-1] == 5

    def test_halt_before_run_with_empty_queue_does_not_leak(self, sched):
        sched.halt()
        sched.run()  # consumes the flag even with nothing queued
        out = []
        sched.post(2, out.append, (2,))
        sched.run()
        assert out == [2]

    def test_halt_runs_late_lane_of_stop_cycle(self, sched):
        out = []

        def stopper():
            sched.post_late(0, out.append, ("late",))
            sched.halt()

        sched.post(2, stopper)
        sched.post(4, out.append, ("next",))
        sched.run()
        assert out == ["late"]
        assert sched.now == 2
