"""Allowable Reordering checker unit tests (paper Section 4.2)."""


from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import MembarMask, OpType
from repro.config import SystemConfig
from repro.consistency.tables import PSO_TABLE, RMO_TABLE, SC_TABLE, TSO_TABLE
from repro.dvmc.framework import ViolationLog
from repro.dvmc.reordering import AllowableReorderingChecker

L, S, SB, MB = OpType.LOAD, OpType.STORE, OpType.STBAR, OpType.MEMBAR
ALL = MembarMask.ALL


def make_checker(table):
    sched = Scheduler()
    log = ViolationLog()
    checker = AllowableReorderingChecker(
        0, sched, StatsRegistry(), SystemConfig(), lambda: table, log
    )
    return checker, log, sched


class TestTSOChecks:
    def test_in_order_performs_are_clean(self):
        checker, log, _ = make_checker(TSO_TABLE)
        for seq, op in enumerate([L, L, S, S]):
            checker.performed(op, seq, ALL)
        assert not log.reports

    def test_store_load_reorder_is_legal(self):
        """TSO's write-buffer relaxation: a younger load performing
        before an older store is allowed."""
        checker, log, _ = make_checker(TSO_TABLE)
        checker.performed(L, 1, ALL)  # load seq 1 performs first
        checker.performed(S, 0, ALL)  # older store performs later
        assert not log.reports

    def test_load_load_reorder_is_violation(self):
        checker, log, _ = make_checker(TSO_TABLE)
        checker.performed(L, 1, ALL)
        checker.performed(L, 0, ALL)
        assert len(log.reports) == 1
        assert log.reports[0].kind == "illegal-reordering"

    def test_store_store_reorder_is_violation(self):
        checker, log, _ = make_checker(TSO_TABLE)
        checker.performed(S, 1, ALL)
        checker.performed(S, 0, ALL)
        assert len(log.reports) == 1

    def test_load_store_reorder_is_violation(self):
        """A store performing before an older load breaks Load->Store."""
        checker, log, _ = make_checker(TSO_TABLE)
        checker.performed(S, 1, ALL)
        checker.performed(L, 0, ALL)
        assert len(log.reports) == 1


class TestSCChecks:
    def test_any_reorder_is_violation(self):
        for first, second in ((L, L), (L, S), (S, L), (S, S)):
            checker, log, _ = make_checker(SC_TABLE)
            checker.performed(second, 1, ALL)
            checker.performed(first, 0, ALL)
            assert log.reports, f"{first}->{second} reorder undetected"


class TestPSOChecks:
    def test_store_store_reorder_legal(self):
        checker, log, _ = make_checker(PSO_TABLE)
        checker.performed(S, 1, ALL)
        checker.performed(S, 0, ALL)
        assert not log.reports

    def test_stbar_restores_store_order(self):
        """Store A < Stbar < Store B: B performing before the Stbar is a
        violation (Stbar->Store constraint)."""
        checker, log, _ = make_checker(PSO_TABLE)
        checker.performed(S, 0, ALL)  # A
        checker.performed(S, 2, ALL)  # B jumps the barrier
        checker.performed(SB, 1, ALL)  # the Stbar performs last
        assert log.reports  # Stbar seq 1 after younger store seq 2

    def test_store_must_precede_stbar(self):
        checker, log, _ = make_checker(PSO_TABLE)
        checker.performed(SB, 1, ALL)
        checker.performed(S, 0, ALL)  # store older than stbar, performs late
        assert log.reports


class TestRMOChecks:
    def test_everything_reorders_freely(self):
        checker, log, _ = make_checker(RMO_TABLE)
        checker.performed(S, 3, ALL)
        checker.performed(L, 2, ALL)
        checker.performed(S, 0, ALL)
        checker.performed(L, 1, ALL)
        assert not log.reports

    def test_membar_mask_enforced(self):
        """Membar #LL orders loads only: a load hopping it violates; a
        store hopping it does not."""
        checker, log, _ = make_checker(RMO_TABLE)
        checker.performed(MB, 1, MembarMask.LOADLOAD)
        checker.performed(S, 0, ALL)  # store->membar with #LL: unordered
        assert not log.reports
        checker.performed(L, 0, ALL)  # load->membar with #LL: ordered!
        assert log.reports

    def test_membar_vs_younger_accesses(self):
        """Membar #SS seq 1 performing after younger store seq 2
        performed is a violation (Membar->Store)."""
        checker, log, _ = make_checker(RMO_TABLE)
        checker.performed(S, 2, ALL)
        checker.performed(MB, 1, MembarMask.STORESTORE)
        assert log.reports

    def test_atomic_checked_as_both(self):
        """Under RMO with a #LL membar: an atomic (load half) hopping the
        membar is caught."""
        checker, log, _ = make_checker(RMO_TABLE)
        checker.performed(MB, 1, MembarMask.LOADLOAD)
        checker.performed(OpType.ATOMIC, 0, ALL)
        assert log.reports


class TestLostOperations:
    def test_outstanding_op_detected(self):
        checker, log, sched = make_checker(TSO_TABLE)
        checker.committed(S, 0, cycle=0)
        interval = SystemConfig().dvmc.membar_injection_interval
        sched.post(3 * interval, lambda: None)
        sched.run()  # periodic injected-membar checks fire
        assert any(r.kind == "lost-operation" for r in log.reports)

    def test_performed_op_not_reported(self):
        checker, log, sched = make_checker(TSO_TABLE)
        checker.committed(S, 0, cycle=0)
        checker.performed(S, 0, ALL)
        interval = SystemConfig().dvmc.membar_injection_interval
        sched.post(3 * interval, lambda: None)
        sched.run()
        assert not log.reports

    def test_recent_commits_not_flagged(self):
        checker, log, _ = make_checker(TSO_TABLE)
        checker.committed(S, 0, cycle=0)
        checker.check_outstanding()  # immediately: too young to flag
        assert not log.reports

    def test_outstanding_count(self):
        checker, _, _ = make_checker(TSO_TABLE)
        checker.committed(L, 0, 0)
        checker.committed(S, 1, 0)
        assert checker.outstanding_count == 2
        checker.performed(L, 0, ALL)
        assert checker.outstanding_count == 1

    def test_barriers_not_tracked_as_outstanding(self):
        checker, _, _ = make_checker(TSO_TABLE)
        checker.committed(MB, 0, 0)
        assert checker.outstanding_count == 0


class TestDynamicTableSwitch:
    def test_checker_follows_active_table(self):
        """Runtime model switching: the same event stream is legal under
        PSO but illegal under TSO."""
        active = {"table": PSO_TABLE}
        sched = Scheduler()
        log = ViolationLog()
        checker = AllowableReorderingChecker(
            0, sched, StatsRegistry(), SystemConfig(), lambda: active["table"], log
        )
        checker.performed(S, 1, ALL)
        checker.performed(S, 0, ALL)  # PSO: fine
        assert not log.reports
        active["table"] = TSO_TABLE
        checker.performed(S, 3, ALL)
        checker.performed(S, 2, ALL)  # TSO: violation
        assert log.reports
