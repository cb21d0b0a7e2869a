"""MOSI directory protocol (paper's directory system, Table 6).

Home memory controllers keep a full-map directory (owner + sharer set)
and *block*: transactions for a block serialise at its home, queued
requests waiting for the active transaction's Unblock.  Invalidation
acknowledgements flow directly from sharers to the requestor.  All
traffic rides the unordered 2D torus.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.common.errors import SimulationError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import CoherenceState, EpochType, block_of
from repro.config import SystemConfig
from repro.interconnect.base import Network
from repro.interconnect.message import (
    FLAG_DATA_COMING,
    FLAG_HAVE_LINE,
    Message,
)
from repro.memory.cache import CacheArray
from repro.memory.memory import MainMemory
from repro.obs.spans import K_OWNER

from .cache_controller import BaseCacheController, WritebackEntry
from .messages import Coh

#: Controller occupancy per handled message, cycles.
_CTRL_LATENCY = 2


class _DirTransaction:
    """Requestor-side state of an outstanding GetS/GetM."""

    __slots__ = (
        "block",
        "want_m",
        "had_line",
        "data",
        "acks_expected",
        "acks_received",
        "data_coming",
        "tid",
    )

    def __init__(self, block: int, want_m: bool, had_line: bool, tid: int):
        self.block = block
        self.want_m = want_m
        self.had_line = had_line  # upgrading from S/O (data already valid)
        self.data: Optional[List[int]] = None
        self.acks_expected: Optional[int] = None
        self.acks_received = 0
        self.data_coming: Optional[bool] = None
        self.tid = tid  # flight-recorder trace id (0 = untraced)

    def complete(self) -> bool:
        if not self.want_m:
            return self.data is not None
        if self.acks_expected is None or self.data_coming is None:
            return False
        if self.acks_received < self.acks_expected:
            return False
        return (not self.data_coming) or self.data is not None


class DirectoryCacheController(BaseCacheController):
    """Cache side of the MOSI directory protocol."""

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        l1: CacheArray,
        network: Network,
        home_of: Callable[[int], int],
    ):
        super().__init__(node, scheduler, stats, config, l1)
        self.network = network
        self.home_of = home_of

    # -- outbound ---------------------------------------------------------
    def _send(
        self,
        dst: int,
        kind: Coh,
        addr: int,
        data=None,
        req: int = -1,
        flags: int = 0,
        tid: int = 0,
    ) -> None:
        size = (
            self.config.network.data_message_bytes
            if data is not None
            else self.config.network.control_message_bytes
        )
        msg = Message(self.node, dst, kind, addr, data, size, req=req, flags=flags)
        if tid:
            msg.tid = tid
        self.network.send(msg)

    def _start_transaction(self, block: int, want_m: bool, tid: int) -> None:
        line = self.l1.peek(block)
        self._active[block] = _DirTransaction(block, want_m, line is not None, tid)
        home = self.home_of(block)
        # have_line tells the home whether an upgrade really holds data;
        # silent Shared evictions leave the directory's sharer list
        # stale, so the home cannot rely on it for data-supply decisions.
        self._send(
            home,
            Coh.GETM if want_m else Coh.GETS,
            block,
            flags=FLAG_HAVE_LINE if line is not None else 0,
            tid=tid,
        )

    def _start_writeback(self, entry: WritebackEntry) -> None:
        self._send(self.home_of(entry.addr), Coh.PUTM, entry.addr, data=entry.data)

    # -- inbound ------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        """Entry point from the node's network dispatcher."""
        self.scheduler.post(_CTRL_LATENCY, self._handle, (msg,))

    def _handle(self, msg: Message) -> None:
        kind = msg.kind
        if kind is Coh.DATA:
            self._on_data(msg)
        elif kind is Coh.ACK_COUNT:
            self._on_ack_count(msg)
        elif kind is Coh.INV_ACK:
            self._on_inv_ack(msg)
        elif kind is Coh.FWD_GETS:
            self._on_fwd_gets(msg)
        elif kind is Coh.FWD_GETM:
            self._on_fwd_getm(msg)
        elif kind is Coh.INV:
            self._on_inv(msg)
        elif kind is Coh.WB_ACK:
            self._writeback_done(msg.addr, stale=False)
        elif kind is Coh.WB_STALE:
            self._writeback_done(msg.addr, stale=True)
        else:
            self.unexpected(f"kind_{kind}")

    # Transaction replies -------------------------------------------------
    def _txn(self, addr: int) -> Optional[_DirTransaction]:
        return self._active.get(block_of(addr))

    def _on_data(self, msg: Message) -> None:
        txn = self._txn(msg.addr)
        if txn is None:
            self.unexpected("data_no_txn")
            return
        txn.data = list(msg.data) if msg.data is not None else None
        self._maybe_finish(txn)

    def _on_ack_count(self, msg: Message) -> None:
        txn = self._txn(msg.addr)
        if txn is None or not txn.want_m:
            self.unexpected("ackcount_no_txn")
            return
        txn.acks_expected = msg.acks
        txn.data_coming = bool(msg.flags & FLAG_DATA_COMING)
        self._maybe_finish(txn)

    def _on_inv_ack(self, msg: Message) -> None:
        txn = self._txn(msg.addr)
        if txn is None or not txn.want_m:
            self.unexpected("invack_no_txn")
            return
        txn.acks_received += 1
        self._maybe_finish(txn)

    def _maybe_finish(self, txn: _DirTransaction) -> None:
        if not txn.complete():
            return
        block = txn.block
        line = self.l1.peek(block)
        if txn.want_m:
            if line is not None:
                if txn.data is not None:
                    # Upgrade with a fresh copy (owner supplied data):
                    # the RO epoch ends over the *old* line content; the
                    # RW epoch begins over the arriving data.
                    checker = self.checker
                    if checker is not None:
                        checker.epoch_end(self.node, block, line.data)
                    line.data = list(txn.data)
                    line.state = CoherenceState.M
                    if checker is not None:
                        checker.epoch_begin(
                            self.node, block, EpochType.READ_WRITE, line.data
                        )
                    if self.wakes is not None:
                        self.wakes.notify()
                else:
                    self._upgrade_to_m(block, txn.tid)
            else:
                if txn.data is None:
                    # Only reachable under injected faults (e.g. a lost
                    # or misrouted Data): abandon; the watchdog detects
                    # the stuck core request.
                    self.unexpected("getm_no_data_or_line")
                    self._active.pop(block, None)
                    return
                self._install_block(block, CoherenceState.M, txn.data, txn.tid)
        else:
            if txn.data is None:
                self.unexpected("gets_no_data")
                self._active.pop(block, None)
                return
            self._install_block(block, CoherenceState.S, txn.data, txn.tid)
        self._send(self.home_of(block), Coh.UNBLOCK, block, tid=txn.tid)
        self._transaction_done(block)

    # Remote-initiated actions ---------------------------------------------
    def _on_fwd_gets(self, msg: Message) -> None:
        requestor = msg.req
        block = block_of(msg.addr)
        line = self.l1.peek(block)
        if line is not None and line.state.is_owner():
            self._downgrade_to_o(block)
            self._send(requestor, Coh.DATA, block, data=list(line.data), tid=msg.tid)
            return
        wb = self._writebacks.get(block)
        if wb is not None:
            wb.responded = True
            self._send(requestor, Coh.DATA, block, data=list(wb.data), tid=msg.tid)
            return
        self.unexpected("fwd_gets_no_copy")

    def _on_fwd_getm(self, msg: Message) -> None:
        requestor = msg.req
        block = block_of(msg.addr)
        line = self.l1.peek(block)
        if line is not None and line.state.is_owner():
            data = self._invalidate_block(block)
            self._send(requestor, Coh.DATA, block, data=data, tid=msg.tid)
            return
        wb = self._writebacks.get(block)
        if wb is not None:
            wb.responded = True
            self._send(requestor, Coh.DATA, block, data=list(wb.data), tid=msg.tid)
            return
        self.unexpected("fwd_getm_no_copy")

    def _on_inv(self, msg: Message) -> None:
        requestor = msg.req
        block = block_of(msg.addr)
        line = self.l1.peek(block)
        if line is not None:
            if line.state.is_owner():
                # Spec: Inv only targets S sharers; owners get Fwd_GetM.
                self.unexpected("inv_on_owner")
            self._invalidate_block(block)
        # Always ack, even when the copy was silently evicted earlier.
        self._send(requestor, Coh.INV_ACK, block, tid=msg.tid)


class _DirEntry:
    """Compatibility view of one block's directory state.

    The controller keeps its real state struct-of-arrays (parallel
    int-keyed dicts with sharer *bitmasks*); this object is materialised
    on demand for tests and fault targeting, which want the old
    owner/sharer-set shape.
    """

    __slots__ = ("owner", "sharers", "busy", "queue")

    def __init__(self) -> None:
        self.owner: Optional[int] = None  # None => memory is owner
        self.sharers: Set[int] = set()
        self.busy = False
        self.queue: Deque[Message] = deque()


class DirectoryMemoryController:
    """Home side: full-map blocking directory plus its memory slice.

    Directory state is struct-of-arrays: ``_owner`` (block -> owning
    node, absent when memory owns), ``_sharers`` (block -> bitmask of
    sharer nodes), ``_busy`` (set of blocks with an open transaction)
    and ``_queue`` (block -> deferred messages, allocated lazily).  The
    bitmask form makes the GetM invalidation sweep a few int ops per
    sharer instead of set algebra plus a sort.
    """

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        memory: MainMemory,
        network: Network,
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.memory = memory
        self.network = network
        self._owner: Dict[int, int] = {}
        self._sharers: Dict[int, int] = {}
        self._busy: Set[int] = set()
        self._queue: Dict[int, Deque[Message]] = {}
        self._stat = f"dir.{node}"
        # Preresolved int-slot counter handles (hot increment sites).
        self._h_gets = stats.handle(f"dir.{node}.gets")
        self._h_getm = stats.handle(f"dir.{node}.getm")
        self._h_putm = stats.handle(f"dir.{node}.putm")
        self._h_unexpected = stats.handle(f"dir.{node}.unexpected")
        self._values = stats.values
        # Interned hot-path targets; every coherence transaction funnels
        # several messages through this controller.
        self._post = scheduler.post
        self._mem_latency = config.memory.latency
        #: DVMC coherence checker (None = absent), wired by the builder.
        self.checker = None
        #: Flight recorder (None unless built with spans=True; see obs.spans).
        self.spans = None
        self._span_track = 0

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; one track per home node."""
        self.spans = spans
        self._span_track = spans.track(f"dir.{self.node}")

    def entry(self, block: int) -> _DirEntry:
        """Materialise the old per-block entry shape (cold path)."""
        ent = _DirEntry()
        ent.owner = self._owner.get(block)
        mask = self._sharers.get(block, 0)
        while mask:
            low = mask & -mask
            ent.sharers.add(low.bit_length() - 1)
            mask ^= low
        ent.busy = block in self._busy
        ent.queue = self._queue.get(block, ent.queue)
        return ent

    # -- outbound ---------------------------------------------------------
    def _send(
        self,
        dst: int,
        kind: Coh,
        addr: int,
        data=None,
        req: int = -1,
        acks: int = -1,
        flags: int = 0,
        tid: int = 0,
    ) -> None:
        size = (
            self.config.network.data_message_bytes
            if data is not None
            else self.config.network.control_message_bytes
        )
        msg = Message(
            self.node, dst, kind, addr, data, size,
            req=req, acks=acks, flags=flags,
        )
        if tid:
            msg.tid = tid
        self.network.send(msg)

    # -- inbound ------------------------------------------------------------
    def handle_message(self, msg: Message) -> None:
        self.scheduler.post(_CTRL_LATENCY, self._handle, (msg,))

    def _handle(self, msg: Message) -> None:
        block = msg.addr & ~63  # block_of, inlined
        if msg.kind is Coh.UNBLOCK:
            self._on_unblock(block)
            return
        if block in self._busy:
            queue = self._queue.get(block)
            if queue is None:
                queue = self._queue[block] = deque()
            queue.append(msg)
            return
        self._process(msg, block)

    def _process(self, msg: Message, block: int) -> None:
        if msg.kind is Coh.GETS:
            self._on_gets(msg.src, block, msg.tid)
        elif msg.kind is Coh.GETM:
            self._on_getm(
                msg.src, block, bool(msg.flags & FLAG_HAVE_LINE), msg.tid
            )
        elif msg.kind is Coh.PUTM:
            self._on_putm(msg, block)
        else:
            self._values[self._h_unexpected] += 1

    def _supply(
        self, requestor: int, block: int, data: List[int], tid: int
    ) -> None:
        """Memory-sourced Data reply (posted after the memory latency)."""
        self._send(requestor, Coh.DATA, block, data=data, tid=tid)

    def _on_gets(self, requestor: int, block: int, tid: int = 0) -> None:
        self._busy.add(block)
        self._values[self._h_gets] += 1
        if self.checker is not None:
            self.checker.home_request(self.node, block)
        owner = self._owner.get(block)
        if owner is None:
            data = self.memory.read_block(block)
            self._post(
                self._mem_latency, self._supply, (requestor, block, data, tid)
            )
        else:
            self._send(owner, Coh.FWD_GETS, block, req=requestor, tid=tid)
        self._sharers[block] = self._sharers.get(block, 0) | (1 << requestor)
        # Owner (if any) retains ownership in O state.

    def _on_getm(
        self,
        requestor: int,
        block: int,
        have_line: bool = False,
        tid: int = 0,
    ) -> None:
        self._busy.add(block)
        self._values[self._h_getm] += 1
        if self.checker is not None:
            self.checker.home_request(self.node, block)
        owner = self._owner.get(block)
        rbit = 1 << requestor
        sharer_mask = self._sharers.get(block, 0)
        inv_mask = sharer_mask & ~rbit
        data_coming = not (owner == requestor or (sharer_mask & rbit and have_line))
        if owner is not None and owner != requestor:
            self._send(owner, Coh.FWD_GETM, block, req=requestor, tid=tid)
            data_coming = True
            inv_mask &= ~(1 << owner)
        elif owner is None and data_coming:
            data = self.memory.read_block(block)
            self._post(
                self._mem_latency, self._supply, (requestor, block, data, tid)
            )
        self._send(
            requestor,
            Coh.ACK_COUNT,
            block,
            acks=inv_mask.bit_count(),
            flags=FLAG_DATA_COMING if data_coming else 0,
            tid=tid,
        )
        # Ascending bit order matches the old sorted(invalidatees) sweep.
        mask = inv_mask
        while mask:
            low = mask & -mask
            self._send(low.bit_length() - 1, Coh.INV, block, req=requestor, tid=tid)
            mask ^= low
        self._owner[block] = requestor
        self._sharers[block] = 0
        s = self.spans
        if s is not None:
            # Directory's view: ownership moved to the requestor.
            s.instant(
                tid, self._span_track, K_OWNER, self.scheduler.now,
                block, requestor + 1, self.node,
            )

    def _on_putm(self, msg: Message, block: int) -> None:
        self._values[self._h_putm] += 1
        if self._owner.get(block) == msg.src:
            if msg.data is None:
                raise SimulationError("PutM without data")
            if self.checker is not None:
                self.checker.memory_written(
                    self.node, block, self.memory.read_block(block), msg.data
                )
            self.memory.write_block(block, msg.data)
            del self._owner[block]
            self._send(msg.src, Coh.WB_ACK, block, tid=msg.tid)
            s = self.spans
            if s is not None:
                # Ownership returned to memory (owner code 0).
                s.instant(
                    msg.tid, self._span_track, K_OWNER, self.scheduler.now,
                    block, 0, self.node,
                )
        else:
            self._send(msg.src, Coh.WB_STALE, block, tid=msg.tid)

    def _on_unblock(self, block: int) -> None:
        busy = self._busy
        busy.discard(block)
        queue = self._queue.get(block)
        if queue is None:
            return
        while queue and block not in busy:
            self._process(queue.popleft(), block)
        if not queue:
            del self._queue[block]
