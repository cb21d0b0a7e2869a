"""Allowable Reordering checker (paper Section 4.2).

Every instruction gets a sequence number at decode (its program-order
rank).  When an operation performs, the checker verifies that no
*younger* operation of a constrained type performed earlier, using one
``max{OP}`` counter per operation type — plus one counter per Membar
mask bit, so a Membar only constrains the access kinds its mask names.

Lost operations are detected by comparing committed against performed
operations at Membar points; because real Membars can be arbitrarily
rare, artificial membar checks are injected periodically (paper: about
one per 100k cycles, negligible cost, no effect on correctness).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, Optional

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import MembarMask, OpType, ViolationReport
from repro.config import SystemConfig
from repro.consistency.ordering_table import MASK_BITS, OrderingTable
from repro.dvmc.streaming import OpLog
from repro.obs.spans import K_AR, OP_CLASS

#: Integer encodings for the streaming log (see :mod:`repro.dvmc.streaming`);
#: op types are written as their :data:`~repro.obs.spans.OP_CLASS` code.
_OP_FROM_CODE = tuple(OpType)
_MASK_FROM_BITS = tuple(MembarMask(v) for v in range(16))
_REC_COMMITTED = 0
_REC_PERFORMED = 1


class AllowableReorderingChecker:
    """Per-core AR checker.

    ``table`` is provided through a zero-argument callable so that
    SPARC v9's runtime consistency-model switching (PSTATE.MM) is
    honoured: the checker always consults the table active *now*.
    """

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        table: Callable[[], OrderingTable],
        violations: Callable[[ViolationReport], None],
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.table = table
        self.violations = violations
        self._max: Dict[OpType, int] = {t: -1 for t in OpType}
        self._membar_bit_max: Dict[MembarMask, int] = {b: -1 for b in MASK_BITS}
        #: committed-but-not-yet-performed operations, insertion ordered.
        self._outstanding: "OrderedDict[int, tuple]" = OrderedDict()
        self._stat = f"ar.{node}"
        self._stat_violations = f"ar.{node}.violations"
        self._stat_injected = f"ar.{node}.injected_membars"
        self._interval = config.dvmc.membar_injection_interval
        #: Set by the system builder; used by the progress watchdog.
        self.core = None
        #: Streaming-plane state (see :mod:`repro.dvmc.streaming`).
        #: ``build_system`` attaches a log to every checker:
        #: ``committed``/``performed`` then append ints-only records
        #: and :meth:`drain_log` replays a whole segment in one call.
        #: With no log the checker is eager (a check per event), the
        #: reference the unit tests hold the log to.
        self._log: Optional[OpLog] = None
        #: Ordering-table registry: tables are long-lived singletons
        #: (``table_for`` memoises them), so a small id <-> table map
        #: lets a log record pin the table active at *record* time even
        #: if PSTATE.MM switches the core's table before the drain.
        self._tables: list = []
        self._table_ids: Dict[int, int] = {}
        #: Flight recorder (None unless built with spans=True; see obs.spans).
        self.spans = None
        self._span_track = 0
        scheduler.post(self._interval, self._injected_membar_check)

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; AR verdicts share one track."""
        self.spans = spans
        self._span_track = spans.track("checker.ar")

    def obs_snapshot(self) -> dict:
        """Observable interface: streaming-plane and checker state."""
        log = {} if self._log is None else self._log.stats()
        return {
            "mode": "eager" if self._log is None else "streaming",
            "log_fill_records": log.get("records", 0),
            "log_capacity_records": log.get("max_capacity_records", 0),
            "outstanding": len(self._outstanding),
            "injected_membars": self.stats.counter(self._stat_injected),
            "violations": self.stats.counter(self._stat_violations),
        }

    # -- streaming plane ------------------------------------------------------
    def attach_log(self, log: Optional[OpLog] = None) -> OpLog:
        """Switch to batch mode: record operations, check at drains."""
        self.drain_log()
        self._log = log if log is not None else OpLog()
        return self._log

    def _table_id(self) -> int:
        table = self.table()
        tid = self._table_ids.get(id(table))
        if tid is None:
            tid = len(self._tables)
            self._tables.append(table)  # keeps the id() pin alive
            self._table_ids[id(table)] = tid
        return tid

    def drain_log(self) -> None:
        """Batch entry point: replay every buffered record in one call.

        The drain performs exactly the checks the eager path would have
        made, against the table and cycle captured when each record was
        appended, so violations and stats are bit-identical between the
        two modes.
        """
        log = self._log
        if log is None or log.length == 0:
            return
        buf = log.buf
        end = log.length
        log.length = 0
        outstanding = self._outstanding
        ops = _OP_FROM_CODE
        masks = _MASK_FROM_BITS
        tables = self._tables
        performed_at = self._performed_at
        i = 0
        while i < end:
            if buf[i] == _REC_COMMITTED:
                outstanding[buf[i + 2]] = (ops[buf[i + 1]], buf[i + 3])
            else:
                performed_at(
                    ops[buf[i + 1]],
                    buf[i + 2],
                    masks[buf[i + 3]],
                    tables[buf[i + 4]],
                    buf[i + 5],
                )
            i += 6

    # -- event feed -----------------------------------------------------------
    def committed(self, op_type: OpType, seq: int, cycle: int) -> None:
        """An operation committed; it must eventually perform."""
        if op_type.is_memory_access():
            log = self._log
            if log is not None:
                n = log.length
                if n == log.capacity and not log.grow():
                    self.drain_log()
                    n = 0
                buf = log.buf
                buf[n] = _REC_COMMITTED
                buf[n + 1] = OP_CLASS[op_type]
                buf[n + 2] = seq
                buf[n + 3] = cycle
                log.length = n + 6
                return
            self._outstanding[seq] = (op_type, cycle)

    def performed(self, op_type: OpType, seq: int, mask: MembarMask) -> None:
        """An operation performed; check it against the ordering table."""
        log = self._log
        if log is not None:
            n = log.length
            if n == log.capacity and not log.grow():
                self.drain_log()
                n = 0
            buf = log.buf
            buf[n] = _REC_PERFORMED
            buf[n + 1] = OP_CLASS[op_type]
            buf[n + 2] = seq
            buf[n + 3] = mask
            buf[n + 4] = self._table_id()
            buf[n + 5] = self.scheduler.now
            log.length = n + 6
            return
        self._performed_at(op_type, seq, mask, self.table(), self.scheduler.now)

    def _performed_at(
        self,
        op_type: OpType,
        seq: int,
        mask: MembarMask,
        table: OrderingTable,
        cycle: int,
    ) -> None:
        self._outstanding.pop(seq, None)
        s = self.spans
        if s is not None:
            tid = s.tid_for(self.node, seq)
            if tid:
                # The AR verdict point: this op's reorder window closed.
                s.instant(
                    tid, self._span_track, K_AR, cycle,
                    OP_CLASS[op_type], seq, self.node,
                )
        plan = table.check_plans.get((op_type, mask))
        if plan is None:
            plan = table.compile_check_plan(op_type, mask)
        checks, targets, bar_bits = plan
        # ``bit is None`` entries compare against the per-type max;
        # membar entries compare against the per-mask-bit max.
        bit_max = self._membar_bit_max
        type_max = self._max
        for target, second, bit in checks:
            if bit is None:
                if type_max[second] > seq:
                    self._violate(target, second, seq, cycle)
            elif bit_max[bit] > seq:
                self._violate(target, OpType.MEMBAR, seq, cycle)
        # Update the max counters.
        for target in targets:
            if seq > type_max[target]:
                type_max[target] = seq
        for bit in bar_bits:
            if seq > bit_max[bit]:
                bit_max[bit] = seq

    # -- lost-operation detection ------------------------------------------------
    def check_outstanding(self) -> None:
        """Membar-point check: committed operations older than the
        injection interval should long since have performed."""
        self.drain_log()
        now = self.scheduler.now
        stale = [
            (seq, op_type, cycle)
            for seq, (op_type, cycle) in self._outstanding.items()
            if now - cycle > self._interval
        ]
        for seq, op_type, cycle in stale:
            self._outstanding.pop(seq, None)
            self.stats.incr(self._stat_violations)
            detail = (
                f"{op_type.value} seq {seq} committed at cycle {cycle} "
                f"never performed"
            )
            s = self.spans
            if s is not None:
                s.violation("AR", self.node, now, seq=seq, detail=detail)
            self.violations(
                ViolationReport(
                    "AR",
                    now,
                    self.node,
                    "lost-operation",
                    detail,
                )
            )

    def _injected_membar_check(self) -> None:
        self.stats.incr(self._stat_injected)
        self.check_outstanding()
        self._watchdog()
        # Re-arm only while something else can still happen: other
        # queued events, unperformed operations to watch, or a core
        # that has not finished its workload.  An unconditional
        # reschedule keeps a bare ``Scheduler.run()`` from ever
        # draining the queue once the machine is otherwise done.
        if (
            self.scheduler.pending()
            or self._outstanding
            or (self.core is not None and not self.core.quiescent)
        ):
            self.scheduler.post(self._interval, self._injected_membar_check)

    def _watchdog(self) -> None:
        """Catch operations lost before commit (e.g. a dropped data
        response leaves a load stuck in execute forever): a core with
        unfinished work but no progress for several membar-injection
        intervals has lost an operation."""
        core = self.core
        if core is None or core.quiescent:
            return
        stalled = self.scheduler.now - core.last_progress_cycle
        if stalled > 3 * self._interval:
            self.stats.incr(self._stat_violations)
            detail = f"core {self.node} made no progress for {stalled} cycles"
            s = self.spans
            if s is not None:
                s.violation("AR", self.node, self.scheduler.now, detail=detail)
            self.violations(
                ViolationReport(
                    "AR",
                    self.scheduler.now,
                    self.node,
                    "lost-operation",
                    detail,
                )
            )

    # -- internals -----------------------------------------------------------
    def _violate(
        self, first: OpType, second: OpType, seq: int, cycle: int
    ) -> None:
        self.stats.incr(self._stat_violations)
        detail = (
            f"{first.value} seq {seq} performed after a younger "
            f"{second.value} it is ordered before"
        )
        s = self.spans
        if s is not None:
            s.violation("AR", self.node, cycle, seq=seq, detail=detail)
        self.violations(
            ViolationReport(
                "AR",
                cycle,
                self.node,
                "illegal-reordering",
                detail,
            )
        )

    @property
    def outstanding_count(self) -> int:
        self.drain_log()
        return len(self._outstanding)
