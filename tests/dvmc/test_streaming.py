"""Streaming verification plane: OpLog substrate and eager/batch identity."""

import dataclasses
import random

import pytest

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import MembarMask, OpType
from repro.config import SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.consistency.tables import table_for
from repro.dvmc.framework import ViolationLog
from repro.dvmc.reordering import AllowableReorderingChecker
from repro.dvmc.streaming import (
    LOG_GROWTH,
    LOG_RECORDS,
    LOG_START_RECORDS,
    RECORD_WIDTH,
    OpLog,
)
from repro.parallel import RunSpec, execute_run_spec


class TestOpLog:
    def test_starts_empty_below_the_cap(self):
        log = OpLog()
        assert len(log) == 0
        assert not log.full
        assert log.max_capacity == LOG_RECORDS * RECORD_WIDTH
        assert log.capacity == LOG_START_RECORDS * RECORD_WIDTH
        assert len(log.buf) == log.capacity < log.max_capacity

    @pytest.mark.parametrize("records", [100, 1000])
    def test_grows_geometrically_never_past_the_cap(self, records):
        log = OpLog(records=records)
        sizes = [log.capacity]
        while log.grow():
            assert log.capacity == min(
                sizes[-1] * LOG_GROWTH, records * RECORD_WIDTH
            )
            assert len(log.buf) == log.capacity
            sizes.append(log.capacity)
        assert sizes[-1] == log.max_capacity == records * RECORD_WIDTH
        assert not log.grow()  # at the cap: nothing changes
        assert len(log.buf) == log.max_capacity

    def test_default_growth_steps(self):
        log = OpLog()
        steps = [log.capacity // RECORD_WIDTH]
        while log.grow():
            steps.append(log.capacity // RECORD_WIDTH)
        assert steps == [64, 256, 1024, 4096]

    def test_full_only_at_the_cap(self):
        log = OpLog(records=LOG_START_RECORDS * LOG_GROWTH)
        log.length = log.capacity  # allocated slots used up, cap not reached
        assert not log.full
        assert log.grow()
        assert not log.full
        log.length = log.max_capacity
        assert log.full

    def test_grow_keeps_written_records(self):
        log = OpLog()
        log.buf[0] = 7
        log.buf[log.capacity - 1] = 9
        buf = log.buf
        assert log.grow()
        assert log.buf is buf  # grown in place: cached references stay valid
        assert (log.buf[0], log.buf[log.capacity // LOG_GROWTH - 1]) == (7, 9)

    def test_stats_report_allocation_and_cap(self):
        log = OpLog(records=256)
        log.length = 16 * RECORD_WIDTH
        assert log.stats() == {
            "records": 16,
            "capacity_records": LOG_START_RECORDS,
            "max_capacity_records": 256,
            "fill": 16 / 256,
        }

    def test_custom_capacity_and_clear(self):
        log = OpLog(records=2)
        log.length = RECORD_WIDTH  # one record appended by an owner
        assert len(log) == 1
        assert not log.full
        log.length = 2 * RECORD_WIDTH
        assert log.full
        log.clear()
        assert len(log) == 0 and not log.full


class TestARCheckerLogModes:
    """The AR checker must report identically with and without a log."""

    def _checker(self, attach):
        # A tiny log forces mid-run drains.
        return _make_checker(OpLog(records=4) if attach else None)

    def _drive(self, sched, checker):
        """Stores performed out of program order under TSO (a violation)."""
        for cycle, (op, seq) in enumerate(
            [
                (OpType.STORE, 1),
                (OpType.LOAD, 2),
                (OpType.STORE, 3),
                (OpType.LOAD, 4),
                (OpType.STORE, 5),
            ]
        ):
            sched.now = cycle
            checker.committed(op, seq, cycle)
        # Perform youngest-first: under TSO store->store order this
        # must flag reordering violations in both modes.
        for op, seq in [
            (OpType.STORE, 5),
            (OpType.LOAD, 4),
            (OpType.STORE, 3),
            (OpType.LOAD, 2),
            (OpType.STORE, 1),
        ]:
            sched.now += 1
            checker.performed(op, seq, MembarMask.NONE)
        checker.check_outstanding()

    def test_log_and_eager_agree(self):
        sched_e, eager, violations_e = self._checker(attach=False)
        self._drive(sched_e, eager)
        sched_b, batch, violations_b = self._checker(attach=True)
        self._drive(sched_b, batch)
        def key(r):
            return (r.cycle, r.checker, r.node, r.kind, r.detail)

        assert sorted(map(key, violations_e.reports)) == sorted(
            map(key, violations_b.reports)
        )

    def test_outstanding_count_drains_log(self):
        _sched, checker, _violations = self._checker(attach=True)
        checker.committed(OpType.STORE, seq=1, cycle=0)
        assert checker.outstanding_count == 1

    def test_obs_snapshot_reports_the_cap(self):
        _sched, checker, _violations = self._checker(attach=False)
        log = checker.attach_log()
        checker.committed(OpType.STORE, seq=1, cycle=0)
        snap = checker.obs_snapshot()
        assert snap["log_fill_records"] == 1
        assert snap["log_capacity_records"] == LOG_RECORDS  # the cap...
        assert log.capacity < log.max_capacity  # ...not the allocation


def _make_checker(log=None):
    sched = Scheduler()
    violations = ViolationLog()
    table = table_for(ConsistencyModel.TSO)
    checker = AllowableReorderingChecker(
        node=0,
        scheduler=sched,
        stats=StatsRegistry(),
        config=SystemConfig.protected(),
        table=lambda: table,
        violations=violations,
    )
    if log is not None:
        checker.attach_log(log)
    return sched, checker, violations


def _recording_drains(sched, checker):
    """Wrap ``drain_log``; returns the (cycle, records) of each drain."""
    drains = []
    drain = checker.drain_log

    def recording_drain():
        if checker._log.length:
            drains.append((sched.now, len(checker._log)))
        drain()

    checker.drain_log = recording_drain
    return drains


def _drive_stream(sched, checker, seed, ops, membar_rate):
    """A committed/performed stream with occasional out-of-order
    performs (TSO violations) and membar-point checks."""
    rng = random.Random(seed)
    kinds = (OpType.LOAD, OpType.STORE, OpType.LOAD, OpType.STORE, OpType.ATOMIC)
    window = []
    for seq in range(1, ops + 1):
        sched.now += rng.randrange(1, 4)
        op = rng.choice(kinds)
        checker.committed(op, seq, sched.now)
        window.append((op, seq))
        if len(window) >= rng.randrange(1, 6):
            if rng.random() < 0.1:
                rng.shuffle(window)
            for op, s in window:
                checker.performed(op, s, MembarMask.NONE)
            window.clear()
        if rng.random() < membar_rate:
            checker.check_outstanding()
    for op, s in window:
        checker.performed(op, s, MembarMask.NONE)
    checker.check_outstanding()


@pytest.mark.parametrize("records,seed", [(256, 1), (256, 2), (LOG_RECORDS, 3)])
def test_growing_log_drains_like_a_preallocated_one(records, seed):
    """A log that grows toward its cap must drain at exactly the record
    counts a log allocated at its cap drains at, and report the same
    violations in the same order."""
    reference = OpLog(records=records)
    while reference.grow():
        pass
    assert reference.capacity == reference.max_capacity
    ops = 3 * records
    runs = []
    for log in (OpLog(records=records), reference):
        sched, checker, violations = _make_checker(log)
        drains = _recording_drains(sched, checker)
        # Each op logs two records, so a membar point lands about once
        # per two logs' worth: the stream drains both at membar checks
        # and at the cap.
        _drive_stream(sched, checker, seed, ops, membar_rate=1 / records)
        runs.append(
            (
                drains,
                [(r.cycle, r.kind, r.detail) for r in violations.reports],
                checker.stats.counter(checker._stat_violations),
            )
        )
    growing, preallocated = runs
    assert growing == preallocated
    drains, reports, _ = growing
    assert any(n == records for _, n in drains)  # some drains hit the cap
    assert any(n < records for _, n in drains)  # and some were membar points
    assert reports  # the stream does exercise the violation path


def _run_metrics(monkeypatch, eager: bool, workload: str):
    """Run one system; ``eager`` keeps every AR checker log-free, so it
    checks each event as it arrives (the per-event reference)."""
    with monkeypatch.context() as patch:
        if eager:
            patch.setattr(
                AllowableReorderingChecker, "attach_log", lambda self: None
            )
        spec = RunSpec(
            SystemConfig.protected().with_seed(11), workload, ops=40
        )
        return execute_run_spec(spec)


class TestEagerBatchIdentity:
    """Per-event checking and the default streaming plane must agree
    bit-for-bit: cycles, violation count, events, and every counter."""

    @pytest.mark.parametrize("workload", ["oltp", "barnes"])
    def test_full_run_identical(self, monkeypatch, workload):
        batch = _run_metrics(monkeypatch, eager=False, workload=workload)
        eager = _run_metrics(monkeypatch, eager=True, workload=workload)
        assert dataclasses.asdict(batch) == dataclasses.asdict(eager)

    def test_built_checkers_stream_through_a_log(self):
        from repro.system.builder import build_system

        system = build_system(SystemConfig.protected().with_seed(1))
        assert system.dvmc.ar_checkers
        assert all(ar._log is not None for ar in system.dvmc.ar_checkers)
