"""MOSI snooping protocol (paper's snooping system, Table 6).

Coherence requests broadcast on a totally ordered address network
(broadcast tree); data moves on the unordered torus.  A request's
position in the broadcast order is its serialization point: epochs for
the coherence checker begin and end at serialization, with block data
possibly arriving later (the CET's DataReadyBit case).

Memory controllers snoop every request and track, exactly, which cache
owns each of their home blocks (ownership changes only through GetM and
PutM, which are never silent), so they know when memory must supply
data.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.common.errors import SimulationError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import CoherenceState, EpochType, block_of, word_index
from repro.config import SystemConfig
from repro.interconnect.base import Network
from repro.interconnect.message import Message
from repro.memory.cache import CacheArray
from repro.memory.memory import MainMemory
from repro.obs.spans import K_OWNER

from .cache_controller import BaseCacheController, WritebackEntry
from .hooks import SystemHooks
from .messages import Coh, Snoop

_CTRL_LATENCY = 2


class _SnoopTransaction:
    """Requestor-side state of an outstanding broadcast request."""

    __slots__ = (
        "block",
        "want_m",
        "serialized",
        "await_data",
        "killed",
        "obligations",
        "lost_to",
        "tid",
    )

    def __init__(self, block: int, want_m: bool):
        self.block = block
        self.want_m = want_m
        self.serialized = False
        self.await_data = False
        self.killed = False  # a later GetM took the block before our data came
        self.obligations: List[Tuple[Snoop, int, Optional[int], int]] = []
        self.tid = 0  # flight-recorder trace id (0 = untraced)
        #: Node whose GetM was serialized after ours took future
        #: ownership; once set, later snoops are that node's problem.
        self.lost_to: Optional[int] = None


class SnoopingCacheController(BaseCacheController):
    """Cache side of the MOSI snooping protocol."""

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        hooks: SystemHooks,
        config: SystemConfig,
        l1: CacheArray,
        address_net: Network,
        data_net: Network,
        home_of: Callable[[int], int],
    ):
        super().__init__(node, scheduler, stats, hooks, config, l1)
        self.address_net = address_net
        self.data_net = data_net
        self.home_of = home_of
        self.manage_epochs = False
        #: Set by the system builder; epochs are stamped with snoop
        #: counts so handoffs land exactly at their serialization point.
        self.logical_time = None

    def _now(self):
        return None if self.logical_time is None else self.logical_time.now(self.node)

    # -- outbound ---------------------------------------------------------
    def _broadcast(self, kind: Snoop, addr: int, tid: int = 0) -> None:
        msg = Message(
            src=self.node,
            dst=-1,  # rewritten per delivery by the broadcast net
            kind=kind,
            addr=addr,
            size_bytes=self.config.network.control_message_bytes,
        )
        if tid:
            msg.tid = tid
        self.address_net.send(msg)

    def _send_data(
        self, dst: int, kind: Coh, addr: int, data: List[int], tid: int = 0
    ) -> None:
        msg = Message(
            self.node,
            dst,
            kind,
            addr,
            list(data),
            self.config.network.data_message_bytes,
        )
        if tid:
            msg.tid = tid
        self.data_net.send(msg)

    def _start_transaction(self, block: int, want_m: bool) -> None:
        txn = _SnoopTransaction(block, want_m)
        txn.tid = self._miss_tid
        self._active[block] = txn
        self._broadcast(Snoop.GETM if want_m else Snoop.GETS, block, tid=txn.tid)

    def _start_writeback(self, entry: WritebackEntry) -> None:
        self._broadcast(Snoop.PUTM, entry.addr)

    # -- snoops (ordered) ---------------------------------------------------
    def handle_snoop(self, msg: Message) -> None:
        self.scheduler.post(_CTRL_LATENCY, self._snoop, (msg,))

    def _snoop(self, msg: Message) -> None:
        block = block_of(msg.addr)
        if msg.src == self.node:
            self._own_snoop(msg, block)
        else:
            self._other_snoop(msg, block)

    # Own request reaches its serialization point --------------------------
    def _own_snoop(self, msg: Message, block: int) -> None:
        if msg.kind is Snoop.PUTM:
            self._own_putm(block)
            return
        txn = self._active.get(block)
        if not isinstance(txn, _SnoopTransaction) or txn.serialized:
            self.unexpected("own_snoop_no_txn")
            return
        txn.serialized = True
        line = self.l1.peek(block)
        if txn.want_m:
            if line is not None and line.state.is_owner():
                # O->M (or M; no data movement): epochs switch here.
                self.hooks.epoch_end(self.node, block, list(line.data))
                line.state = CoherenceState.M
                self.hooks.epoch_begin(
                    self.node, block, EpochType.READ_WRITE, list(line.data)
                )
                if self.wakes is not None:
                    self.wakes.notify()
                self._complete(txn)
                return
            if line is not None:
                # S->M: the RO epoch ends here; fresh data will arrive
                # (memory always supplies unless the requestor owns).
                self.hooks.epoch_end(self.node, block, list(line.data))
                self.l1.remove(block)
            self.hooks.epoch_begin(
                self.node, block, EpochType.READ_WRITE, None
            )
            txn.await_data = True
        else:
            self.hooks.epoch_begin(self.node, block, EpochType.READ_ONLY, None)
            txn.await_data = True

    def _own_putm(self, block: int) -> None:
        wb = self._writebacks.get(block)
        if wb is None:
            self.unexpected("own_putm_no_wb")
            return
        if wb.responded:
            # A GetM serialized before our PutM already took the block.
            self._writeback_done(block, stale=True)
            return
        self.hooks.epoch_end(self.node, block, list(wb.data))
        self._send_data(self.home_of(block), Coh.PUTM, block, wb.data)
        self._writeback_done(block, stale=False)

    # Another node's request ------------------------------------------------
    def _other_snoop(self, msg: Message, block: int) -> None:
        if msg.kind is Snoop.GETS:
            self._other_gets(msg.src, block, tid=msg.tid)
        elif msg.kind is Snoop.GETM:
            self._other_getm(msg.src, block, tid=msg.tid)
        # PUTM by others: caches are not involved.

    def _other_gets(
        self,
        requestor: int,
        block: int,
        at_lt: Optional[int] = None,
        tid: int = 0,
    ) -> None:
        at = self._now() if at_lt is None else at_lt
        line = self.l1.peek(block)
        if line is not None and line.state.is_owner():
            if line.state is CoherenceState.M:
                self.hooks.epoch_end(self.node, block, list(line.data), at)
                line.state = CoherenceState.O
                self.hooks.epoch_begin(
                    self.node, block, EpochType.READ_ONLY, list(line.data), at
                )
                if self.wakes is not None:
                    self.wakes.notify()
            self._send_data(requestor, Coh.DATA, block, line.data, tid=tid)
            return
        wb = self._writebacks.get(block)
        if wb is not None and not wb.responded:
            # Still the owner until our PutM serializes; supply data and
            # continue owning (M->O transition applies to the WB copy).
            if wb.state is CoherenceState.M:
                self.hooks.epoch_end(self.node, block, list(wb.data), at)
                wb.state = CoherenceState.O
                self.hooks.epoch_begin(
                    self.node, block, EpochType.READ_ONLY, list(wb.data), at
                )
            self._send_data(requestor, Coh.DATA, block, wb.data, tid=tid)
            return
        txn = self._active.get(block)
        if (
            isinstance(txn, _SnoopTransaction)
            and txn.serialized
            and txn.want_m
            and txn.lost_to is None
        ):
            txn.obligations.append((Snoop.GETS, requestor, at, tid))

    def _other_getm(
        self,
        requestor: int,
        block: int,
        at_lt: Optional[int] = None,
        tid: int = 0,
    ) -> None:
        at = self._now() if at_lt is None else at_lt
        line = self.l1.peek(block)
        if line is not None:
            if line.state.is_owner():
                self._send_data(requestor, Coh.DATA, block, line.data, tid=tid)
            self.hooks.epoch_end(self.node, block, list(line.data), at)
            self.hooks.invalidation(self.node, block)
            self.l1.remove(block)
            return
        wb = self._writebacks.get(block)
        if wb is not None and not wb.responded:
            wb.responded = True
            self.hooks.epoch_end(self.node, block, list(wb.data), at)
            self._send_data(requestor, Coh.DATA, block, wb.data, tid=tid)
            return
        txn = self._active.get(block)
        if isinstance(txn, _SnoopTransaction) and txn.serialized:
            if txn.want_m:
                if txn.lost_to is None:
                    txn.obligations.append((Snoop.GETM, requestor, at, tid))
                    txn.lost_to = requestor
            elif not txn.killed:
                # Our read was serialized first but the writer's GetM
                # arrived before our data: the arriving block serves the
                # waiting load once, then the line is dead on arrival.
                txn.killed = True
                self.hooks.epoch_end(self.node, block, None, at)
                self.hooks.invalidation(self.node, block)

    # -- data arrival ---------------------------------------------------------
    def handle_data(self, msg: Message) -> None:
        self.scheduler.post(_CTRL_LATENCY, self._data, (msg,))

    def _data(self, msg: Message) -> None:
        block = block_of(msg.addr)
        txn = self._active.get(block)
        if not isinstance(txn, _SnoopTransaction) or not txn.await_data:
            self.unexpected("data_no_txn")
            return
        if msg.data is None:
            raise SimulationError("snooping DATA without payload")
        if txn.killed:
            # Serve the waiting load from the in-flight data *before*
            # closing out the epoch record (the access must be checked
            # against the still-present CET entry).
            self._complete_killed(txn, list(msg.data))
            self.hooks.epoch_data(self.node, block, list(msg.data))
            return
        self.hooks.epoch_data(self.node, block, list(msg.data))
        state = CoherenceState.M if txn.want_m else CoherenceState.S
        self._install_block(block, state, list(msg.data))
        self._complete(txn)

    # -- completion -----------------------------------------------------------
    def _complete(self, txn: _SnoopTransaction) -> None:
        block = txn.block
        self._active.pop(block, None)
        # Perform the waiting core accesses now, inside our epoch...
        self._service_block(block)
        # ...then honour handoffs that serialized after our request,
        # stamped with the logical time of *their* serialization point.
        for kind, requestor, at_lt, tid in txn.obligations:
            if kind is Snoop.GETM:
                self._other_getm(requestor, block, at_lt, tid=tid)
            else:
                self._other_gets(requestor, block, at_lt, tid=tid)
        self.scheduler.post(1, self._service_block, (block,))
        if self.wakes is not None:
            self.wakes.notify()

    def _complete_killed(self, txn: _SnoopTransaction, data: List[int]) -> None:
        """Serve the head load from in-flight data; the line is not
        installed (a later writer already owns it)."""
        block = txn.block
        self._active.pop(block, None)
        queue = self._queues.get(block)
        if queue:
            head = queue[0]
            if not head.needs_write:
                queue.popleft()
                value = data[word_index(head.addr)]
                self.hooks.access(self.node, head.addr, False)
                head.on_done(value)
        self.stats.incr(f"{self._stat}.killed_fills")
        self.scheduler.post(1, self._service_block, (block,))
        if self.wakes is not None:
            self.wakes.notify()


class SnoopingMemoryController:
    """Memory side: snoops every request; supplies data when it owns."""

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        hooks: SystemHooks,
        config: SystemConfig,
        memory: MainMemory,
        data_net: Network,
        home_of: Callable[[int], int],
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.hooks = hooks
        self.config = config
        self.memory = memory
        self.data_net = data_net
        self.home_of = home_of
        self._owner: Dict[int, Optional[int]] = {}
        self._pending_wb: Dict[int, int] = {}
        self._stat = f"snoopmem.{node}"
        # Preresolved int-slot counter handles (hot increment sites).
        self._h_gets = stats.handle(f"snoopmem.{node}.gets")
        self._h_getm = stats.handle(f"snoopmem.{node}.getm")
        self._h_putm = stats.handle(f"snoopmem.{node}.putm")
        self._values = stats.values
        #: Flight recorder (None unless built with spans=True; see obs.spans).
        self.spans = None
        self._span_track = 0

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; one track per home node."""
        self.spans = spans
        self._span_track = spans.track(f"snoopmem.{self.node}")

    def handle_snoop(self, msg: Message) -> None:
        self.scheduler.post(_CTRL_LATENCY, self._snoop, (msg,))

    def _snoop(self, msg: Message) -> None:
        block = block_of(msg.addr)
        if self.home_of(block) != self.node:
            return
        owner = self._owner.get(block)
        kind = msg.kind
        if kind is Snoop.GETS:
            self.hooks.home_request(self.node, block)
            self._values[self._h_gets] += 1
            if owner is None:
                self._supply(msg.src, block, msg.tid)
        elif kind is Snoop.GETM:
            self.hooks.home_request(self.node, block)
            self._values[self._h_getm] += 1
            if owner is None and owner != msg.src:
                self._supply(msg.src, block, msg.tid)
            if owner != msg.src:
                self._owner[block] = msg.src
                s = self.spans
                if s is not None:
                    # Home's exact-ownership view: block moved to msg.src.
                    s.instant(
                        msg.tid, self._span_track, K_OWNER,
                        self.scheduler.now, block, msg.src + 1, self.node,
                    )
        elif kind is Snoop.PUTM:
            self._values[self._h_putm] += 1
            if owner == msg.src:
                self._owner[block] = None
                self._pending_wb[block] = msg.src
                s = self.spans
                if s is not None:
                    # Ownership returned to memory (owner code 0).
                    s.instant(
                        msg.tid, self._span_track, K_OWNER,
                        self.scheduler.now, block, 0, self.node,
                    )

    def _supply(self, requestor: int, block: int, tid: int = 0) -> None:
        data = self.memory.read_block(block)
        msg = Message(
            self.node,
            requestor,
            Coh.DATA,
            block,
            data,
            self.config.network.data_message_bytes,
        )
        if tid:
            msg.tid = tid
        self.scheduler.post(
            self.config.memory.latency,
            self.data_net.send,
            (msg,),
        )

    def handle_data(self, msg: Message) -> None:
        """Writeback data arriving on the torus."""
        self.scheduler.post(_CTRL_LATENCY, self._wb_data, (msg,))

    def _wb_data(self, msg: Message) -> None:
        block = block_of(msg.addr)
        if self._pending_wb.get(block) == msg.src and msg.data is not None:
            del self._pending_wb[block]
            self.hooks.memory_write(
                self.node, block, self.memory.read_block(block), msg.data
            )
            self.memory.write_block(block, msg.data)
        else:
            self.stats.incr(f"{self._stat}.stale_wb_data")
