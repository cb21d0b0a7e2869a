"""Simplified out-of-order core with a DVMC verification stage.

The core executes a workload *program* (a Python generator yielding
:mod:`~repro.processor.operations`), modelling the pipeline stages that
matter to memory consistency (paper Figure 2):

``decode`` (sequence numbers, ROB allocation) ->
``execute`` (loads bind values, speculatively under SC/TSO/PSO;
non-speculatively under RMO) ->
``commit`` (in order; stores enter the write buffer) ->
``verify`` (DVMC only: in-order replay against the Verification Cache
and L1) -> ``retire``.

Perform points follow the paper (Section 4.1): stores perform when they
write the cache (write-buffer drain, or post-verification for SC, which
has no write buffer); loads perform at the verification stage in
load-ordered models (SC/TSO/PSO) and at execute under RMO.  Ordering
enforcement is driven *generically* from the active ordering table, so
the same machinery implements all four models; the Allowable Reordering
checker then independently verifies the result.
"""

from __future__ import annotations

from collections import deque
from itertools import islice
from typing import Callable, Deque, Dict, List, Optional

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.waitsets import WaitSet, WakeHub
from repro.common.types import MembarMask, OpType, block_of, word_of
from repro.config import SystemConfig
from repro.consistency.models import ConsistencyModel
from repro.consistency.ordering_table import OrderingTable
from repro.consistency.tables import table_for
from repro.obs.spans import K_WB, OP_CLASS

from .operations import Batch, Compute, SetModel
from .write_buffer import WBEntry, WriteBuffer

#: Extra stall cycles charged for a load-order mis-speculation squash.
SQUASH_PENALTY = 12


class OpRec:
    """Pipeline bookkeeping for one in-flight operation."""

    __slots__ = (
        "seq",
        "tid",
        "op_type",
        "addr",
        "value",
        "mask",
        "executed",
        "bound_value",
        "committed",
        "in_verify",
        "verified",
        "performed",
        "squashed",
        "release",
        "ord_row",
        "ord_si",
        "wb_veto",
        "blocker",
    )

    def __init__(self, seq: int, op) -> None:
        self.seq = seq
        #: Flight-recorder trace id (0 = not traced).
        self.tid = 0
        kind: OpType = op.op_type
        self.op_type = kind
        # Per-kind field pick-up: the old getattr(op, ..., default)
        # triple costs three C calls per decoded op; every kind's field
        # set is statically known.
        if kind is OpType.LOAD:
            self.addr = op.addr
            self.value = None
            self.mask = MembarMask.ALL
        elif kind is OpType.STORE or kind is OpType.ATOMIC:
            self.addr = op.addr
            self.value = op.value
            self.mask = MembarMask.ALL
        elif kind is OpType.MEMBAR:
            self.addr = 0
            self.value = None
            self.mask = op.mask
        else:  # STBAR
            self.addr = 0
            self.value = None
            self.mask = MembarMask.ALL
        self.executed = False
        self.bound_value: Optional[int] = None
        self.committed = False
        self.in_verify = False
        self.verified = False
        self.performed = False
        self.squashed = False
        self.release: Optional[Callable[[Optional[int]], None]] = None
        #: Precompiled ordering-table role (set at decode): row of
        #: ordered-before booleans, this op's column index, and the
        #: write-buffer drain veto (LOAD/MEMBAR/STBAR ordered before
        #: STORE).  See :meth:`OrderingTable.op_role`.
        self.ord_row: List[bool] = []
        self.ord_si = 0
        self.wb_veto = False
        #: Poll-loop memo: the ordering-table scan's last hit.  While
        #: the cached record is still unperformed the scan's verdict
        #: cannot have changed (seq and ord_row are immutable), so the
        #: next poll skips the walk.  Never holds a STORE — under a
        #: write-buffer model stores can retire unperformed and their
        #: ``performed`` flag then never flips.
        self.blocker: Optional["OpRec"] = None


class Core:
    """One processor (thread context) driving a workload program."""

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        controller,
        program,
        wake_hub: WakeHub,
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.controller = controller
        self.program = program
        #: DVMC checkers (UO, AR), wired by the builder when enabled.
        self.uo = None
        self.ar = None
        self._adopt_model(config.model)

        self._inflight: Deque[OpRec] = deque()
        # Committed entries form a strict prefix of ``_inflight`` (commit
        # is in order and stops at the first stall); this cursor lets
        # ``_try_commit`` resume at the first uncommitted record instead
        # of rescanning the prefix every pump.
        self._ncommitted = 0
        self._verify_q: Deque[OpRec] = deque()
        self._next_seq = 0
        self._spec_loads: Dict[int, List[OpRec]] = {}
        self._sc_store_outstanding = False
        self.finished = False
        self._started = False
        self._pump_scheduled = False
        self._stall_until = 0
        self._stat = f"core.{node}"
        # Per-event stat keys, precomputed: f-string assembly (and enum
        # ``.value`` descriptor access) is measurable at this call rate.
        self._ops_h = {t: stats.handle(f"core.{node}.ops.{t.value}") for t in OpType}
        self._h_retired = stats.handle(f"core.{node}.retired")
        self._h_compute = stats.handle(f"core.{node}.compute_cycles")
        self._values = stats.values
        self.last_progress_cycle = 0
        # Hoisted config scalars for the decode/poll hot paths.
        self._rob_size = config.processor.rob_size
        self._fetch_width = max(1, config.processor.fetch_width)
        self._decode_delay_single = 1 + 1 // self._fetch_width
        # Interned unbound targets: ``self.scheduler.post`` /
        # ``self.stats.incr`` cost two attribute hops per call; one
        # interned lookup serves the ~14 calls made per simulated event.
        self._post = scheduler.post
        self._incr = stats.incr

        # Wakeup plane: blocked ops park on a WaitSet instead of
        # re-posting fixed-period retries; every transition that can
        # unblock them notifies.  The hub is shared system-wide
        # (builder passes it) so same-cycle checks across cores run in
        # one deterministic agenda.
        self._hub = wake_hub
        #: Ordering/resource conditions: something *performed*, the
        #: write buffer drained, the SC store slot freed, a VC entry
        #: freed, a cache line changed state.
        self._ws_order = WaitSet(wake_hub)
        #: ROB-space condition: retirement freed entries.
        self._ws_rob = WaitSet(wake_hub)
        #: Quiescence hook (set by ``System.run`` for its simulate phase
        #: only): called once when the program has finished and every
        #: side effect is visible.
        self.on_quiescent: Optional[Callable[[], None]] = None
        self._q_reported = False
        #: Per-episode VC-backpressure latch: ``vc_full_stalls`` counts
        #: blocked *episodes*, not retry attempts — attempts are a
        #: property of the retry regime (poll vs wakeup), episodes are
        #: architectural and mode-identical.
        self._vc_stall_flag = False

        self.wb: Optional[WriteBuffer] = None
        self._set_write_buffer(self.model)
        # Verify-stage slot accounting (verification_width per cycle).
        self._verify_cycle = -1
        self._verify_used = 0
        #: Fault injection: XOR applied to the next load's bound value
        #: (models LSQ mis-forwarding / load reordering errors).
        self.fault_load_value_xor: Optional[int] = None
        #: Transaction flight recorder (``spans=True``), wired by the
        #: builder; None costs one attribute load per guarded site.
        self.spans = None
        self._span_track = 0
        self._span_wb_track = 0

    def attach_spans(self, spans) -> None:
        """Wire the flight recorder (never changes simulation results)."""
        self.spans = spans
        self._span_track = spans.track(f"core.{self.node}")
        self._span_wb_track = spans.track(f"wb.{self.node}")

    # ------------------------------------------------------------------
    # Program driving
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        self._post(0, self._advance, (None,))

    def _advance(self, result) -> None:
        """Feed the previous result to the program; decode what it yields."""
        try:
            yielded = self.program.send(result)
        except StopIteration:
            self.finished = True
            self._kick()
            return
        self.last_progress_cycle = self.scheduler.now
        # One isinstance against the control-op tuple keeps the common
        # shape — a bare memory op — at a single type check and no
        # wrapper list.
        if isinstance(yielded, (Compute, SetModel, Batch)):
            if isinstance(yielded, Compute):
                self._values[self._h_compute] += yielded.cycles
                self._post(
                    max(1, yielded.cycles), self._advance, (None,)
                )
            elif isinstance(yielded, SetModel):
                self._switch_model(yielded.model)
            else:
                ops = yielded.ops
                if ops:
                    self._decode_group(ops)
                else:
                    self._post(1, self._advance, (None,))
            return
        self._decode_one(yielded)

    def _switch_model(self, model: ConsistencyModel) -> None:
        """Drain the pipeline, then adopt ``model``'s ordering rules.

        SPARC v9 serialises on a PSTATE.MM write; we model that as
        waiting until every in-flight operation performed and the write
        buffer drained, then swapping the ordering table (the AR checker
        reads it through the core, so it follows automatically) and the
        write-buffer drain policy.
        """
        drained = (
            not self._inflight
            and not self._verify_q
            and (self.wb is None or self.wb.empty)
            and not self._sc_store_outstanding
        )
        if not drained:
            self._kick()
            self._post(4, self._switch_model, (model,))
            return
        self._adopt_model(model)
        self._set_write_buffer(model)
        if self.uo is not None:
            self.uo.rmo_mode = not model.requires_load_order
            self.uo.flush_clean_entries()
        self._incr(f"{self._stat}.model_switches")
        self._post(2, self._advance, (None,))

    def _set_write_buffer(self, model: ConsistencyModel) -> None:
        """Give the core the write buffer ``model`` drains stores
        through: none under SC, else the in-order (TSO) or out-of-order
        (PSO/RMO) policy.  An existing buffer (empty at a model switch)
        is kept and takes the new policy."""
        if model is ConsistencyModel.SC:
            self.wb = None
            return
        in_order = not model.allows_store_store_reordering
        if self.wb is not None:
            self.wb.adopt_order(in_order)
            return
        self.wb = WriteBuffer(
            self.node,
            self.config.processor.write_buffer_size,
            in_order=in_order,
            stats=self.stats,
            issue=self._issue_store,
            on_perform=self._store_performed,
            require_verified=self.uo is not None,
        )
        self.wb.wakes = self._ws_order

    def _adopt_model(self, model: ConsistencyModel) -> None:
        """Take ``model``'s ordering table and the views the pipeline
        derives from it."""
        self.model = model
        #: ``model.requires_load_order`` cached as a plain attribute —
        #: the property is consulted on every load's execute/bind/verify
        #: path and the descriptor dispatch is measurable there.
        self._load_ordered = model.requires_load_order
        self.table: OrderingTable = table_for(model)
        table = self.table
        #: Decode-time role memo: every kind except MEMBAR carries the
        #: ALL mask, so its (row, index) is a pure function of the kind
        #: — one identity-hash dict hit replaces ``op_role``'s tuple
        #: build + hash per decoded op.
        self._role_of = {
            t: table.op_role(t, MembarMask.ALL)
            for t in (OpType.LOAD, OpType.STORE, OpType.ATOMIC, OpType.STBAR)
        }
        self._store_row, self._store_si = self._role_of[OpType.STORE]
        #: Store->Load ordered (SC): a value forwarded from a not-yet-
        #: performed store is speculative until the load performs — a
        #: remote store may legally slot in between, and the load must
        #: then observe it.  Under TSO/PSO the early forwarded value is
        #: the architecturally final one (store-buffer bypass).
        self._fwd_speculative = self._store_row[self._role_of[OpType.LOAD][1]]

    def _decode_one(self, op) -> None:
        """Decode a bare (non-batch) operation — the common shape."""
        if len(self._inflight) >= self._rob_size:
            # ROB full: park until retirement frees entries.
            self._ws_rob.park(self._decode_one, (op,))
            return
        rec = OpRec(self._next_seq, op)
        self._next_seq += 1
        kind = rec.op_type
        if kind is OpType.MEMBAR:
            rec.ord_row, rec.ord_si = self.table.op_role(kind, rec.mask)
        else:
            rec.ord_row, rec.ord_si = self._role_of[kind]
        rec.wb_veto = (
            kind is OpType.LOAD
            or kind is OpType.MEMBAR
            or kind is OpType.STBAR
        ) and rec.ord_row[self._store_si]
        s = self.spans
        if s is not None:
            rec.tid = s.new_op(
                self._span_track, self.node, OP_CLASS[kind],
                rec.addr, rec.seq, self.scheduler.now,
            )
        self._inflight.append(rec)
        self._values[self._ops_h[kind]] += 1
        rec.release = self._release_single
        self._post(self._decode_delay_single, self._execute, (rec,))

    def _decode_group(self, ops: List) -> None:
        """Decode a :class:`Batch`; the program resumes with its results."""
        if len(self._inflight) + len(ops) > self._rob_size:
            # ROB full: park until retirement frees entries.
            self._ws_rob.park(self._decode_group, (ops,))
            return
        recs = []
        table = self.table
        role_of = self._role_of
        ops_h = self._ops_h
        values = self._values
        spans = self.spans
        for op in ops:
            rec = OpRec(self._next_seq, op)
            self._next_seq += 1
            kind = rec.op_type
            if kind is OpType.MEMBAR:
                rec.ord_row, rec.ord_si = table.op_role(kind, rec.mask)
            else:
                rec.ord_row, rec.ord_si = role_of[kind]
            rec.wb_veto = (
                kind is OpType.LOAD
                or kind is OpType.MEMBAR
                or kind is OpType.STBAR
            ) and rec.ord_row[self._store_si]
            if spans is not None:
                rec.tid = spans.new_op(
                    self._span_track, self.node, OP_CLASS[kind],
                    rec.addr, rec.seq, self.scheduler.now,
                )
            self._inflight.append(rec)
            recs.append(rec)
            values[ops_h[kind]] += 1

        results: List[Optional[int]] = [None] * len(recs)
        remaining = [len(recs)]

        def release_one(index: int, value: Optional[int]) -> None:
            results[index] = value
            remaining[0] -= 1
            if remaining[0] == 0:
                self._post(1, self._advance, (results,))

        for index, rec in enumerate(recs):
            rec.release = lambda v, i=index: release_one(i, v)
        decode_delay = 1 + len(ops) // self._fetch_width
        for rec in recs:
            self._post(decode_delay, self._execute, (rec,))

    def unlink(self) -> None:
        """Drop the ops a run cut short leaves in flight or parked.

        Each holds a callback into this core (``OpRec.release``, a
        waiter's check), so the System calls this when it is freed.
        """
        self._inflight.clear()
        self._spec_loads.clear()
        self._ws_order.waiters.clear()
        self._ws_rob.waiters.clear()

    def _release_single(self, value: Optional[int]) -> None:
        """Release path for singleton decode groups."""
        self._post(1, self._advance, (value,))

    # ------------------------------------------------------------------
    # Execute stage
    # ------------------------------------------------------------------
    def _execute(self, rec: OpRec) -> None:
        kind = rec.op_type
        if kind is OpType.LOAD:
            self._execute_load(rec)
        elif kind is OpType.STORE:
            rec.executed = True
            if self.model is ConsistencyModel.SC:
                # SC baseline optimisation: exclusive prefetch so the
                # commit-time store usually hits in M (paper Section 4).
                self.controller.prefetch_m(rec.addr, rec.tid)
            self._release(rec, None)
            self._kick()
        elif kind is OpType.ATOMIC:
            self._execute_atomic(rec)
        else:  # MEMBAR / STBAR
            rec.executed = True
            self._release(rec, None)
            self._kick()

    def _lsq_forward(self, rec: OpRec) -> Optional[int]:
        """Forward from an older in-flight (not yet buffered) store."""
        word = word_of(rec.addr)
        seq = rec.seq
        value = None
        for other in self._inflight:
            if other.seq >= seq:
                break
            kind = other.op_type
            if (
                not other.performed  # performed stores live in the cache
                and (kind is OpType.STORE or kind is OpType.ATOMIC)
                and word_of(other.addr) == word
            ):
                value = other.value
        return value

    def _execute_load(self, rec: OpRec) -> None:
        forwarded = self._lsq_forward(rec)
        if forwarded is None and self.wb is not None:
            forwarded = self.wb.forward(rec.addr)
        if forwarded is not None:
            rec.executed = True
            rec.bound_value = forwarded
            if self.uo is not None:
                self.uo.note_load_executed(rec.addr, forwarded, rec.seq)
            if self._load_ordered:
                # The forwarded value is still speculative until the
                # load verifies; remote writes in between mean squash.
                self._spec_loads.setdefault(block_of(rec.addr), []).append(rec)
                if self._fwd_speculative:
                    # Store->Load ordered (SC): the forwarded value must
                    # not reach the program yet — a remote store may
                    # perform before this load does, in which case the
                    # perform point re-reads (squash) and delivers the
                    # fresh value instead.  Same delivery discipline as
                    # the non-forwarded speculative load below.
                    self._kick()
                    return
            elif self._can_perform(rec):
                self._mark_performed(rec)
            else:
                # The forwarded value is final (a local store's value
                # cannot change), but the load must not *perform* past
                # an older barrier still draining the write buffer —
                # the AR checker would rightly flag it.  Effectively
                # the load performs with its source store, which is
                # after the barrier; park the perform point until the
                # ordering table agrees.
                self._ws_order.park(self._perform_when_ready, (rec,))
            self._release(rec, forwarded)
            self._kick()
            return
        if self._load_ordered:
            # Speculative issue; squash tracking via invalidations.
            self._spec_loads.setdefault(block_of(rec.addr), []).append(rec)
            self._issue_load(rec)
        else:
            # RMO: loads perform at execute, non-speculatively.
            if self._can_perform(rec):
                self._issue_load(rec)
            else:
                self._ws_order.park(self._execute_load, (rec,))

    def _issue_load(self, rec: OpRec) -> None:
        self.controller.load(rec.addr, lambda v: self._load_bound(rec, v), rec.tid)

    def _load_bound(self, rec: OpRec, value: int) -> None:
        if self.uo is not None:
            # Recorded from the cache response, before the (faultable)
            # LSQ path delivers the value to the register file.
            self.uo.note_load_executed(rec.addr, value, rec.seq)
        if self.fault_load_value_xor is not None:
            value ^= self.fault_load_value_xor
            self.fault_load_value_xor = None
            self._incr(f"{self._stat}.injected_load_faults")
        rec.executed = True
        rec.bound_value = value
        if not self._load_ordered:
            self._mark_performed(rec)
            self._release(rec, value)
        # Load-ordered models: the bound value is speculative until the
        # load performs; a squash may rebind it.  The program receives
        # the value at the perform point so it only ever observes
        # architecturally final values (a real core would replay the
        # load's dependents on mis-speculation; a generator cannot be
        # rolled back, so it must not consume speculative values).
        self._kick()

    def _execute_atomic(self, rec: OpRec) -> None:
        # Atomics satisfy both load and store ordering constraints and
        # access the cache directly (never buffered).  All gates are
        # pure predicates; the cheap write-buffer check goes first so a
        # backed-up buffer short-circuits the ordering-table scan.
        # (``wb.empty`` and ``_can_perform`` are inlined — this is the
        # hottest poll loop in the core, and a property or method call
        # per poll is measurable.  With the write buffer known empty,
        # ``_can_perform``'s has_store_older_than branch is trivially
        # false; only the SC-store flag and the inflight scan remain.)
        wb = self.wb
        si = rec.ord_si
        if (wb is not None and (wb._entries or wb._outstanding)) or (
            self._sc_store_outstanding and self._store_row[si]
        ):
            self._ws_order.park(self._execute_atomic, (rec,))
            return
        blocker = rec.blocker
        if blocker is not None:
            if not blocker.performed:
                self._ws_order.park(self._execute_atomic, (rec,))
                return
            rec.blocker = None
        seq = rec.seq
        for other in self._inflight:
            if other.seq >= seq:
                break
            if not other.performed and other.ord_row[si]:
                if other.op_type is not OpType.STORE:
                    rec.blocker = other
                self._ws_order.park(self._execute_atomic, (rec,))
                return
        self.controller.atomic(
            rec.addr, rec.value, lambda old: self._atomic_done(rec, old), rec.tid
        )

    def _atomic_done(self, rec: OpRec, old_value: int) -> None:
        rec.executed = True
        rec.bound_value = old_value
        self._mark_performed(rec)
        self._release(rec, old_value)
        self._kick()

    @staticmethod
    def _release(rec: OpRec, value: Optional[int]) -> None:
        if rec.release is not None:
            rec.release(value)
            rec.release = None

    # ------------------------------------------------------------------
    # Commit stage (in order)
    # ------------------------------------------------------------------
    def _try_commit(self) -> None:
        inflight = self._inflight
        n = self._ncommitted
        if n >= len(inflight):
            return
        for rec in islice(inflight, n, None):
            if not rec.executed or not self._commit_one(rec):
                return
            self._ncommitted += 1

    def _commit_one(self, rec: OpRec) -> bool:
        kind = rec.op_type
        if kind is OpType.STORE:
            if self.wb is None:
                rec.committed = True  # SC: performs after verification
                if self.uo is None:
                    self._sc_issue_store(rec)
            else:
                if self.wb.full:
                    self._incr(f"{self._stat}.wb_full_stalls")
                    return False
                entry = self.wb.insert(rec.seq, rec.addr, rec.value)
                if self.uo is None:
                    entry.verified = True
                s = self.spans
                if s is not None and rec.tid:
                    entry.tid = rec.tid
                    entry.token = s.open(
                        rec.tid, self._span_wb_track, K_WB,
                        self.scheduler.now, rec.addr, rec.value, rec.seq,
                    )
                rec.committed = True
        else:
            rec.committed = True
            if kind in (OpType.STBAR, OpType.MEMBAR) and self.wb is not None:
                if kind is OpType.STBAR or rec.mask & MembarMask.STORESTORE:
                    self.wb.fence()
        if self.ar is not None and not rec.performed:
            # Ops that performed before commit (atomics, RMO loads,
            # forwarded loads) are already globally visible.
            self.ar.committed(rec.op_type, rec.seq, self.scheduler.now)
        if self.uo is not None:
            rec.in_verify = True
            self._verify_q.append(rec)
        else:
            self._post_commit_perform(rec)
        return True

    def _post_commit_perform(self, rec: OpRec) -> None:
        """Baseline (no verify stage): commit is the perform point for
        loads and barriers in load-ordered models."""
        rec.verified = True
        kind = rec.op_type
        if kind is OpType.LOAD and self._load_ordered:
            self._perform_load_when_final(rec)
        elif kind in (OpType.MEMBAR, OpType.STBAR):
            self._perform_when_ready(rec)

    def _perform_load_when_final(self, rec: OpRec) -> None:
        """Baseline perform point for load-ordered loads: wait out the
        ordering table (e.g. SC's Store->Load edge), re-read the cache
        if the speculative bind was squashed by a remote write, then
        deliver the final value to the program."""
        if rec.performed:
            return
        if not self._can_perform(rec):
            self._ws_order.park(self._perform_load_when_final, (rec,))
            return
        if rec.squashed:
            rec.squashed = False
            self._incr(f"{self._stat}.load_squashes")
            self._stall_until = self.scheduler.now + SQUASH_PENALTY

            def rebound(value: int) -> None:
                rec.bound_value = value
                self._perform_load_when_final(rec)

            self.controller.load(rec.addr, rebound, rec.tid)
            return
        self._resolve_speculation(rec)
        self._mark_performed(rec)
        self._release(rec, rec.bound_value)
        self._kick()

    def _sc_issue_store(self, rec: OpRec) -> None:
        if self._sc_store_outstanding or not self._can_perform(rec):
            self._ws_order.park(self._sc_issue_store, (rec,))
            return
        self._sc_store_outstanding = True

        def done(old_value: int) -> None:
            self._sc_store_outstanding = False
            if self.uo is not None:
                self.uo.store_performed(rec.seq, rec.addr, rec.value)
            self._mark_performed(rec)

        self.controller.store(rec.addr, rec.value, done, rec.tid)

    # ------------------------------------------------------------------
    # Verification stage (DVMC Uniprocessor Ordering, paper 4.1)
    # ------------------------------------------------------------------
    def _verify_slot_delay(self) -> int:
        now = self.scheduler.now
        if now > self._verify_cycle:
            self._verify_cycle = now
            self._verify_used = 1
            return 0
        if self._verify_used < self.config.dvmc.verification_width:
            self._verify_used += 1
            return 0
        extra = self._verify_used // self.config.dvmc.verification_width
        self._verify_used += 1
        return extra

    def _pump_verify(self) -> None:
        q = self._verify_q
        while q:
            if not self._verify_one(q[0]):
                return

    def _verify_one(self, rec: OpRec) -> bool:
        kind = rec.op_type
        if kind is OpType.LOAD and self._load_ordered:
            # The load performs here; its ordering constraints must hold.
            if not self._can_perform(rec):
                self._schedule_verify_retry()
                return False
        if kind is OpType.STORE:
            if not self.uo.commit_store(rec.seq, rec.addr, rec.value):
                if not self._vc_stall_flag:
                    self._vc_stall_flag = True
                    self._incr(f"{self._stat}.vc_full_stalls")
                self._schedule_verify_retry()
                return False
            self._verify_q.popleft()
            self._vc_stall_flag = False
            rec.verified = True
            if self.wb is None:
                self._sc_issue_store(rec)
            else:
                self.wb.mark_verified(rec.seq)
            self._kick()
            return True
        self._verify_q.popleft()
        delay = (
            self._verify_slot_delay() + self.config.dvmc.verification_stage_latency
        )
        if kind is OpType.LOAD:
            self._post(delay, self._replay_load, (rec,))
        else:
            # MEMBAR / STBAR / ATOMIC: no replay action.
            self._post(delay, self._verify_trivial, (rec,))
        return True

    def _schedule_verify_retry(self) -> None:
        """Park the verify pump until something performs or a VC entry
        frees.  The hub's park is the at-most-one-pending-retry guard
        (it returns the live waiter instead of stacking another), which
        replaces the old ``_verify_retry_scheduled`` flag and covers
        every parking site the same way."""
        self._ws_order.park(self._pump_verify, ())

    def _verify_trivial(self, rec: OpRec) -> None:
        rec.verified = True
        if rec.op_type is OpType.ATOMIC:
            # The atomic takes its program-order slot in the VC here,
            # not at execute (replays of older loads come first).
            self.uo.note_atomic(rec.addr, rec.value)
        elif rec.op_type in (OpType.MEMBAR, OpType.STBAR):
            self._perform_when_ready(rec)
        self._kick()

    def _replay_load(self, rec: OpRec) -> None:
        def done(mismatch: bool, replay_value: int) -> None:
            if mismatch:
                if rec.squashed:
                    # Tracked write to a speculatively loaded address:
                    # legitimate mis-speculation, not an error (paper 4.1).
                    rec.bound_value = replay_value
                    self._incr(f"{self._stat}.load_squashes")
                    self._stall_until = self.scheduler.now + SQUASH_PENALTY
                else:
                    self.uo.report_mismatch(
                        rec.addr, rec.bound_value, replay_value, seq=rec.seq
                    )
            rec.verified = True
            if self._load_ordered:
                self._resolve_speculation(rec)
                self._mark_performed(rec)
                # Perform point: deliver the (possibly squash-corrected)
                # value to the program.  No-op for forwarded loads under
                # TSO/PSO, which released their final value at execute.
                self._release(rec, rec.bound_value)
            self._kick()

        if rec.squashed and rec.release is not None:
            # Mis-speculated load whose value has not been delivered
            # yet: a real core re-executes it.  The VC compare is
            # meaningless for a squashed load (paper 4.1) — and may be
            # skipped as vacuous when a younger store has since
            # committed — so read the cache directly for the value the
            # load performs with.
            self.controller.replay_load(
                rec.addr,
                lambda value: done(value != rec.bound_value, value),
                rec.tid,
            )
            return
        self.uo.replay_load(rec.addr, rec.bound_value, done, seq=rec.seq, tid=rec.tid)

    # ------------------------------------------------------------------
    # Perform bookkeeping
    # ------------------------------------------------------------------
    def _perform_when_ready(self, rec: OpRec) -> None:
        """Deferred perform point of a barrier, or of a forwarded load in
        a model without load ordering (its value was released at
        execute): mark ``rec`` performed once the ordering table lets
        it, parking until then."""
        if rec.performed:
            return
        if self._can_perform(rec):
            self._mark_performed(rec)
        else:
            self._ws_order.park(self._perform_when_ready, (rec,))

    def _mark_performed(self, rec: OpRec) -> None:
        if rec.performed:
            return
        rec.performed = True
        s = self.spans
        if s is not None and rec.tid:
            s.op_touch(rec.tid, self.scheduler.now)
        if self.ar is not None:
            self.ar.performed(rec.op_type, rec.seq, rec.mask)
        # Something became globally visible: every ordering gate
        # (atomics, barriers, blocked loads, the verify pump) may now
        # pass.
        self._ws_order.notify()
        self._kick()

    def _resolve_speculation(self, rec: OpRec) -> None:
        block = block_of(rec.addr)
        recs = self._spec_loads.get(block)
        if recs is not None:
            try:
                recs.remove(rec)
            except ValueError:
                pass
            if not recs:
                del self._spec_loads[block]

    def on_invalidation(self, block: int) -> None:
        """A write (or eviction) hit a speculatively loaded block."""
        for rec in self._spec_loads.get(block, ()):  # unverified loads
            if not rec.performed:
                rec.squashed = True

    # ------------------------------------------------------------------
    # Write-buffer interaction
    # ------------------------------------------------------------------
    def _issue_store(self, entry: WBEntry, on_done: Callable[[int], None]) -> None:
        self.controller.store(entry.addr, entry.value, on_done, entry.tid)

    def _store_performed(self, entry: WBEntry, old_value: int) -> None:
        if self.uo is not None:
            self.uo.store_performed(entry.seq, entry.addr, entry.value)
        s = self.spans
        if s is not None and entry.token:
            # Write-buffer residency span: insert -> globally performed.
            s.close(entry.token, self.scheduler.now)
            entry.token = 0
        rec = self._find_rec(entry.seq)
        if rec is not None:
            self._mark_performed(rec)
        elif self.ar is not None:
            # Already retired from the ROB; notify the checker directly.
            self.ar.performed(OpType.STORE, entry.seq, MembarMask.ALL)
        self._kick()

    def _find_rec(self, seq: int) -> Optional[OpRec]:
        for rec in self._inflight:
            if rec.seq == seq:
                return rec
        return None

    def _may_drain(self, entry: WBEntry) -> bool:
        """Ordering-table veto for write-buffer drains.

        ``wb_veto`` is the decode-time precompilation of the old
        per-type ``table.ordered(LOAD/MEMBAR/STBAR, STORE)`` checks.
        """
        entry_seq = entry.seq
        for rec in self._inflight:
            if rec.wb_veto and rec.seq < entry_seq and not rec.performed:
                return False
        return True

    # ------------------------------------------------------------------
    # Generic ordering-table gate
    # ------------------------------------------------------------------
    def _can_perform(self, rec: OpRec) -> bool:
        """May ``rec`` perform now without violating the ordering table?

        ``other.ord_row[rec.ord_si]`` is exactly the old
        ``table.ordered(other.op_type, target, first_mask, second_mask)``
        over every target of ``rec`` (atomics are expanded inside the
        precompiled cell) — but as a single list lookup, since this is
        the per-poll inner loop of every blocked operation.
        """
        blocker = rec.blocker
        if blocker is not None:
            if not blocker.performed:
                return False
            rec.blocker = None
        seq = rec.seq
        si = rec.ord_si
        for other in self._inflight:
            if other.seq >= seq:
                break
            if not other.performed and other.ord_row[si]:
                if other.op_type is not OpType.STORE:
                    rec.blocker = other
                return False
        # Stores already retired to the write buffer:
        if self._store_row[si]:
            if self.wb is not None and self.wb.has_store_older_than(seq):
                return False
            if self._sc_store_outstanding:
                return False
        return True

    # ------------------------------------------------------------------
    # Retirement and the pump
    # ------------------------------------------------------------------
    def _kick(self) -> None:
        if self._pump_scheduled:
            return
        self._pump_scheduled = True
        delay = self._stall_until - self.scheduler.now
        if delay < 1:
            delay = 1
        self._post(delay, self._pump)

    def _pump(self) -> None:
        self._pump_scheduled = False
        # Stage calls are guarded by their own early-out conditions so
        # an idle stage costs one inline check, not a call: commit has
        # work only past the committed prefix, verify only with a
        # queued record (``_verify_q`` stays empty when ``uo`` is
        # None), retire only with something in flight.
        inflight = self._inflight
        if self._ncommitted < len(inflight):
            self._try_commit()
        if self._verify_q:
            self._pump_verify()
        wb = self.wb
        if wb is not None and wb._entries:
            wb.drain(self._may_drain)
        # Retire stage, inlined (one caller, ~one call per event): pop
        # the head run of completed records off the ROB.
        needs_verify = self.uo is not None
        sc_stores = wb is None
        retired = 0
        while inflight:
            rec = inflight[0]
            if not (rec.verified if needs_verify else rec.committed):
                break
            if rec.op_type is OpType.STORE:
                if sc_stores and not rec.performed:
                    break  # SC: stores retire once performed
            elif not rec.performed:
                break
            inflight.popleft()
            retired += 1
        if retired:
            self._ncommitted -= retired
            self._values[self._h_retired] += retired
            self.last_progress_cycle = self.scheduler.now
            # ROB entries freed: parked decodes may proceed.
            self._ws_rob.notify()
        # Every transition that can complete the program funnels
        # through a kick, so this is the one place quiescence needs
        # checking.  The report lets the System halt the scheduler once
        # all cores are done instead of polling a stop predicate.
        if (
            self.finished
            and not self._q_reported
            and self.on_quiescent is not None
            and self.quiescent
        ):
            self._q_reported = True
            self.on_quiescent()

    # ------------------------------------------------------------------
    @property
    def quiescent(self) -> bool:
        """Program done and every side effect globally visible."""
        return (
            self.finished
            and not self._inflight
            and not self._verify_q
            and (self.wb is None or self.wb.empty)
            and not self._sc_store_outstanding
        )
