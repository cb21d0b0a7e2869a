"""DVMC framework composition and violation log."""

from repro.common.types import ViolationReport
from repro.config import DVMCConfig
from repro.dvmc.framework import DVMC, ViolationLog


def report(checker="UO", cycle=5):
    return ViolationReport(checker, cycle, 0, "kind", "detail")


class TestViolationLog:
    def test_collects_and_orders(self):
        log = ViolationLog()
        log(report("UO", 5))
        log(report("CC", 9))
        assert len(log) == 2
        assert [r.cycle for r in log.reports] == [5, 9]

    def test_callback_fires(self):
        seen = []
        log = ViolationLog(on_report=seen.append)
        log(report())
        assert len(seen) == 1


class TestDVMCConfigPresets:
    def test_disabled(self):
        c = DVMCConfig.disabled()
        assert not c.any_enabled

    def test_coherence_only(self):
        c = DVMCConfig.coherence_only()
        assert c.enable_coherence
        assert not c.enable_uniprocessor and not c.enable_reordering

    def test_uniprocessor_only(self):
        c = DVMCConfig.uniprocessor_only()
        assert c.enable_uniprocessor
        assert not c.enable_coherence and not c.enable_reordering

    def test_full_default(self):
        c = DVMCConfig()
        assert c.any_enabled
        assert c.enable_uniprocessor and c.enable_reordering and c.enable_coherence


class TestDVMCContainer:
    def test_enabled_reflects_members(self):
        dvmc = DVMC()
        assert not dvmc.enabled
        dvmc.ar_checkers.append(object())
        assert dvmc.enabled

    def test_finalize_with_nothing(self):
        DVMC().finalize()  # must not raise
