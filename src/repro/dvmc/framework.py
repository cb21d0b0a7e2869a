"""DVMC framework assembly (paper Section 3).

DVMC composes three independently replaceable checkers — Uniprocessor
Ordering, Allowable Reordering, Cache Coherence — which together are
sufficient for memory consistency (Appendix A).  This module provides
the violation sink shared by all checkers and a small container that
the system builder populates according to the
:class:`~repro.config.DVMCConfig` enables (Base / SN / SN+DVCC /
SN+DVUO / full DVMC, as in Figure 5).
"""

from __future__ import annotations

from typing import List

from repro.common.types import ViolationReport


class ViolationLog:
    """Collects violation reports from every checker.

    ``on_report``, when set, sees each report as it is made; the
    error-injection campaign uses it to compare the first detection
    against the SafetyNet recovery window.
    """

    def __init__(self, on_report=None):
        self.reports: List[ViolationReport] = []
        self.on_report = on_report

    def __call__(self, report: ViolationReport) -> None:
        self.reports.append(report)
        if self.on_report is not None:
            self.on_report(report)

    def __len__(self) -> int:
        return len(self.reports)


class DVMC:
    """The per-system checker bundle (populated by the SystemBuilder)."""

    def __init__(self) -> None:
        self.violations = ViolationLog()
        self.uo_checkers: list = []  # one per core, or empty
        self.ar_checkers: list = []  # one per core, or empty
        self.coherence_checker = None  # CoherenceChecker or None

    @property
    def enabled(self) -> bool:
        return bool(
            self.uo_checkers or self.ar_checkers or self.coherence_checker
        )

    def obs_snapshot(self) -> dict:
        """Observable interface: one view over every attached checker.

        Node keys are strings so the snapshot survives a JSON round
        trip (``repro.cli run --obs-dir`` writes it to
        ``snapshot.json``) unchanged.
        """
        snap: dict = {"violations": len(self.violations.reports)}
        if self.uo_checkers:
            snap["uo"] = {
                str(uo.node): uo.obs_snapshot() for uo in self.uo_checkers
            }
        if self.ar_checkers:
            snap["ar"] = {
                str(ar.node): ar.obs_snapshot() for ar in self.ar_checkers
            }
        if self.coherence_checker is not None:
            snap["cc"] = self.coherence_checker.obs_snapshot()
        return snap

    def finalize(self) -> None:
        """Flush buffered checker state (end of simulation): drain the
        streaming AR logs and MET priority queues, run a final
        lost-operation scan, and put the report list into canonical
        order.

        The canonical sort makes the final report list independent of
        *when* each checker ran its deferred work: every report is
        timestamped with the cycle at which the violation was observed
        (not when a batch drain got around to checking it), so sorting
        on (cycle, checker, node, kind, detail) yields bit-identical
        output between eager (per-event) and batch (streaming) checking.
        The sort is stable and idempotent, and ``reports[0]`` is the
        earliest detection.
        """
        if self.coherence_checker is not None:
            self.coherence_checker.flush()
        for ar in self.ar_checkers:
            ar.check_outstanding()
        self.violations.reports.sort(
            key=lambda r: (r.cycle, r.checker, r.node, r.kind, r.detail)
        )
