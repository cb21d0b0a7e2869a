"""Uniprocessor Ordering checker and Verification Cache (Section 4.1)."""


from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import DVMCConfig, SystemConfig
from repro.dvmc.framework import ViolationLog
from repro.dvmc.uniprocessor import UniprocessorOrderingChecker


class FakeController:
    """Answers replay reads from a dict (stands in for the L1)."""

    def __init__(self):
        self.memory = {}
        self.replay_reads = 0

    def replay_load(self, addr, on_done, tid=0):
        self.replay_reads += 1
        on_done(self.memory.get(addr & ~3, 0))


def make_checker(rmo=False, vc_entries=8):
    sched = Scheduler()
    log = ViolationLog()
    controller = FakeController()
    config = SystemConfig(
        dvmc=DVMCConfig(verification_cache_entries=vc_entries)
    )
    checker = UniprocessorOrderingChecker(
        0, sched, StatsRegistry(), config, controller, log, rmo_mode=rmo
    )
    return checker, log, controller, sched


class TestStorePath:
    def test_alloc_and_clean_free(self):
        checker, log, _, _ = make_checker()
        assert checker.commit_store(0, 0x100, 42)
        checker.store_performed(0, 0x100, 42)
        assert not log.reports
        assert checker.vc_occupancy == 0

    def test_value_mismatch_at_free(self):
        """The deallocation check of Proof 1: the value written to the
        cache must equal the VC value (catches WB corruption)."""
        checker, log, _, _ = make_checker()
        checker.commit_store(0, 0x100, 42)
        checker.store_performed(0, 0x100, 99)  # corrupted en route
        assert len(log.reports) == 1
        assert log.reports[0].kind == "store-value-mismatch"

    def test_perform_without_entry(self):
        """A store performing at an address with no VC entry (wrong-
        address corruption) is itself a violation."""
        checker, log, _, _ = make_checker()
        checker.store_performed(0, 0x500, 1)
        assert log.reports[0].kind == "store-no-vc-entry"

    def test_multiple_stores_same_word_check_last(self):
        checker, log, _, _ = make_checker()
        checker.commit_store(0, 0x100, 1)
        checker.commit_store(1, 0x100, 2)
        checker.store_performed(0, 0x100, 1)  # count 2 -> 1, no check yet
        assert not log.reports
        checker.store_performed(1, 0x100, 2)  # count 0: compare with latest
        assert not log.reports

    def test_vc_full_backpressure(self):
        checker, _, _, _ = make_checker(vc_entries=2)
        assert checker.commit_store(0, 0x100, 1)
        assert checker.commit_store(1, 0x200, 2)
        assert not checker.commit_store(2, 0x300, 3)  # full of live stores

    def test_lost_store_scan(self):
        checker, log, _, sched = make_checker()
        checker.commit_store(0, 0x100, 1)  # never performs
        interval = SystemConfig().dvmc.membar_injection_interval
        sched.post(3 * interval, lambda: None)
        sched.run()
        assert any(r.kind == "store-lost" for r in log.reports)


class TestLoadReplay:
    def test_vc_hit_match(self):
        checker, log, _, _ = make_checker()
        checker.commit_store(0, 0x100, 5)
        out = {}
        checker.replay_load(0x100, 5, lambda m, v: out.update(m=m, v=v))
        assert out == {"m": False, "v": 5}

    def test_vc_hit_mismatch(self):
        checker, _, _, _ = make_checker()
        checker.commit_store(0, 0x100, 5)
        out = {}
        checker.replay_load(0x100, 7, lambda m, v: out.update(m=m, v=v))
        assert out["m"] is True

    def test_vc_miss_reads_cache(self):
        checker, _, controller, _ = make_checker()
        controller.memory[0x100] = 33
        out = {}
        checker.replay_load(0x100, 33, lambda m, v: out.update(m=m, v=v))
        assert controller.replay_reads == 1
        assert out == {"m": False, "v": 33}

    def test_report_mismatch_logs_violation(self):
        checker, log, _, _ = make_checker()
        checker.report_mismatch(0x100, 1, 2)
        assert log.reports[0].kind == "load-replay-mismatch"


class TestRmoOptimisation:
    def test_load_values_satisfy_replay_without_cache(self):
        """Paper 4.1: under RMO, replay uses VC-resident load values,
        avoiding L1 pressure entirely."""
        checker, log, controller, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 11, seq=5)
        out = {}
        checker.replay_load(0x100, 11, lambda m, v: out.update(m=m), seq=5)
        assert controller.replay_reads == 0
        assert out["m"] is False

    def test_own_entry_catches_corruption(self):
        checker, _, _, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 11, seq=5)  # cache said 11
        out = {}
        # The register file got a corrupted 0x1B: mismatch.
        checker.replay_load(0x100, 0x1B, lambda m, v: out.update(m=m), seq=5)
        assert out["m"] is True

    def test_foreign_load_entry_skipped(self):
        """A younger load's deposit must not fail an older load's replay
        (remote stores may legally change the word between them)."""
        checker, log, _, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 1, seq=9)  # younger load saw 1
        out = {}
        checker.replay_load(0x100, 0, lambda m, v: out.update(m=m), seq=5)
        assert out["m"] is False
        assert not log.reports

    def test_local_store_updates_entry(self):
        checker, _, _, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 1, seq=0)
        checker.commit_store(1, 0x100, 2)
        checker.store_performed(1, 0x100, 2)
        out = {}
        checker.replay_load(0x100, 2, lambda m, v: out.update(m=m), seq=2)
        assert out["m"] is False

    def test_non_rmo_ignores_load_notes(self):
        checker, _, controller, _ = make_checker(rmo=False)
        checker.note_load_executed(0x100, 11, seq=5)
        controller.memory[0x100] = 11
        out = {}
        checker.replay_load(0x100, 11, lambda m, v: out.update(m=m), seq=5)
        assert controller.replay_reads == 1  # had to go to the cache

    def test_flush_clean_entries_on_model_switch(self):
        checker, _, controller, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 11, seq=5)
        checker.rmo_mode = False
        checker.flush_clean_entries()
        assert checker.vc_occupancy == 0

    def test_residual_entries_not_used_outside_rmo(self):
        """A count==0 entry left over from an RMO section must not
        satisfy a TSO-mode replay (it may be stale)."""
        checker, log, controller, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 11, seq=5)
        checker.rmo_mode = False
        controller.memory[0x100] = 12
        out = {}
        checker.replay_load(0x100, 12, lambda m, v: out.update(m=m), seq=8)
        assert controller.replay_reads == 1
        assert out["m"] is False

    def test_atomic_supersedes_load_entry(self):
        checker, _, _, _ = make_checker(rmo=True)
        checker.note_load_executed(0x100, 1, seq=0)
        checker.note_atomic(0x100, 7)
        out = {}
        checker.replay_load(0x100, 7, lambda m, v: out.update(m=m), seq=3)
        assert out["m"] is False

    def test_clean_eviction_under_pressure(self):
        checker, _, _, _ = make_checker(rmo=True, vc_entries=2)
        checker.note_load_executed(0x100, 1, seq=0)
        checker.note_load_executed(0x200, 2, seq=1)
        checker.note_load_executed(0x300, 3, seq=2)  # evicts LRU
        assert checker.vc_occupancy == 2
