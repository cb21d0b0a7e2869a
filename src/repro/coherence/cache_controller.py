"""Cache-controller machinery shared by the directory and snooping
protocols.

The controller owns the node's L1 array, serialises core requests per
block, runs coherence transactions, performs loads/stores/atomics when
permissions allow, and tells each event's one observer of it
directly: the DVMC coherence checker (epochs and accesses), SafetyNet
(block writes) and the node's core (invalidations).  Each observer is
``None`` when the machine has none, and every call site checks for it,
so the protocol neither knows nor waits on what watches it.

Evictions are *blocking*: a dirty victim's writeback completes (ack or
stale notification) before the demand request is issued.  This closes
the writeback/forward races without NACKs or extra protocol states and
matches the paper's note that blocks are evicted "before requesting a
new block".
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Set

from repro.common.errors import SimulationError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import WORD_MASK, CoherenceState, EpochType
from repro.config import SystemConfig
from repro.memory.cache import CacheArray, CacheLine
from repro.obs.spans import K_MSHR, K_OWNER

#: Flight-recorder codes for cache-line state transitions (the ``b``
#: column of cache-side K_OWNER instants, offset by +1 so 0 = absent).
_STATE_CODE = {state: index for index, state in enumerate(CoherenceState)}


class OpKind(enum.Enum):
    """Core-request kinds handled by the controller."""

    LOAD = "load"
    STORE = "store"
    ATOMIC = "atomic"
    REPLAY = "replay"  # verification-stage load replay (counted apart)
    PREFETCH = "prefetch"  # exclusive prefetch (SC store optimisation)


class CoreRequest:
    """One pending core request for a block."""

    __slots__ = (
        "kind",
        "addr",
        "value",
        "on_done",
        "issued_at",
        "needs_write",
        "tid",
    )

    def __init__(
        self,
        kind: OpKind,
        addr: int,
        value: Optional[int],
        on_done: Callable,
        issued_at: int,
        tid: int,
    ):
        self.kind = kind
        self.addr = addr
        self.value = value
        self.on_done = on_done
        self.issued_at = issued_at
        self.tid = tid  # flight-recorder trace id (0 = untraced)
        # Stored, not a property: the service loop consults this once
        # per queued request and the descriptor call shows up there.
        self.needs_write = (
            kind is OpKind.STORE
            or kind is OpKind.ATOMIC
            or kind is OpKind.PREFETCH
        )


class WritebackEntry:
    """A dirty block awaiting writeback acknowledgement."""

    __slots__ = ("addr", "data", "state", "responded", "on_done")

    def __init__(
        self,
        addr: int,
        data: List[int],
        on_done: Callable,
        state: CoherenceState = CoherenceState.M,
    ):
        self.addr = addr
        self.data = data
        self.state = state  # state the line had when evicted (M or O)
        self.responded = False  # serviced a forward while in flight
        self.on_done = on_done


class BaseCacheController:
    """Per-node L1 controller; protocol subclasses supply transactions.

    Subclasses implement :meth:`_start_transaction` (obtain S or M for a
    block) and :meth:`_start_writeback` (write a dirty block back) and
    call :meth:`_transaction_done` / :meth:`_writeback_done` when the
    network activity completes.
    """

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        l1: CacheArray,
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.l1 = l1
        self._queues: Dict[int, Deque[CoreRequest]] = {}
        self._active: Dict[int, object] = {}  # block -> transaction record
        self._writebacks: Dict[int, WritebackEntry] = {}
        self._stat = f"l1.{node}"
        # Preresolved int-slot counter handles for the per-request and
        # per-miss increment sites (the old f-string-per-miss keys cost
        # a string build plus dict hash per event).
        self._h_accesses = stats.handle(f"l1.{node}.accesses")
        self._h_replay_accesses = stats.handle(f"l1.{node}.replay_accesses")
        self._h_misses = stats.handle(f"l1.{node}.misses")
        self._h_replay_misses = stats.handle(f"l1.{node}.replay_misses")
        self._h_evictions = stats.handle(f"l1.{node}.evictions")
        self._h_writebacks = stats.handle(f"l1.{node}.writebacks")
        self._h_writebacks_stale = stats.handle(f"l1.{node}.writebacks_stale")
        self._values = stats.values
        self._hit_latency = config.l1.hit_latency
        # Interned hot-path targets (one attribute hop instead of two
        # per request).
        self._post = scheduler.post
        self._incr = stats.incr
        # L1 array internals, interned for the inlined peek in
        # _service_block (one request = one peek; the method call and
        # its re-derived locals are measurable at that rate).  The
        # ``_sets`` list object is mutated in place, never rebound.
        self._l1_sets = l1._sets
        self._l1_shift = l1._shift
        self._l1_set_mask = l1._set_mask
        self._l1_ports = l1.config.ports
        #: When False (snooping), the protocol subclass reports epochs
        #: itself at serialization points; the shared helpers stay
        #: silent except for clean-eviction epoch ends (no serialization
        #: event exists for those).
        self.manage_epochs = True
        #: Observers, wired by the system builder (None = absent): the
        #: DVMC coherence checker, SafetyNet, and this node's core.
        #: Data arguments are the live block, read before the call
        #: returns; observers copy what they keep.
        self.checker = None
        self.safetynet = None
        self.core = None
        #: WaitSet notified on block state/ownership changes and
        #: transaction (MSHR) completion — wired to the owning core's
        #: ordering WaitSet by the system builder.  Spurious notifies
        #: are safe: parked checks just re-evaluate and re-park.
        self.wakes = None
        #: Transaction flight recorder (None = disabled; wired by the
        #: builder via :meth:`attach_spans`).
        self.spans = None
        self._span_track = 0
        self._mshr_tokens: Dict[int, int] = {}
        #: Blocks whose miss is counted and waits for a dirty victim's
        #: writeback before its transaction starts.
        self._evicting: Set[int] = set()

    def attach_spans(self, spans) -> None:
        """Wire the flight recorder (never changes simulation results)."""
        self.spans = spans
        self._span_track = spans.track(f"cache.{self.node}")

    def unlink(self) -> None:
        """Drop the requests a run cut short leaves queued, and the link
        to the core.

        The core holds this controller, and each request's ``on_done``
        calls back into the core, so the System calls this when it is
        freed.
        """
        self._queues.clear()
        self.core = None

    # ------------------------------------------------------------------
    # Core-facing API
    # ------------------------------------------------------------------
    # ``tid`` is the requesting op's flight-recorder trace id (0 when
    # untraced); the miss and the transaction it starts carry it.
    def load(self, addr: int, on_done: Callable[[int], None], tid: int = 0) -> None:
        """Read the word at ``addr``; ``on_done(value)`` when performed."""
        self._submit(
            CoreRequest(OpKind.LOAD, addr, None, on_done, self.scheduler.now, tid)
        )

    def store(
        self, addr: int, value: int, on_done: Callable[[int], None], tid: int = 0
    ) -> None:
        """Write ``value``; ``on_done(old_value)`` when the store performs."""
        self._submit(
            CoreRequest(OpKind.STORE, addr, value, on_done, self.scheduler.now, tid)
        )

    def atomic(
        self, addr: int, value: int, on_done: Callable[[int], None], tid: int = 0
    ) -> None:
        """Atomic swap; ``on_done(old_value)`` when performed."""
        self._submit(
            CoreRequest(OpKind.ATOMIC, addr, value, on_done, self.scheduler.now, tid)
        )

    def replay_load(
        self, addr: int, on_done: Callable[[int], None], tid: int = 0
    ) -> None:
        """Verification-stage replay read (bypasses the write buffer)."""
        self._submit(
            CoreRequest(OpKind.REPLAY, addr, None, on_done, self.scheduler.now, tid)
        )

    def prefetch_m(self, addr: int, tid: int = 0) -> None:
        """Obtain write permission without writing (store prefetch)."""
        self._submit(
            CoreRequest(
                OpKind.PREFETCH, addr, None, lambda _v: None, self.scheduler.now, tid
            )
        )

    def peek_line(self, addr: int) -> Optional[CacheLine]:
        """Non-intrusive lookup (used by checkers and fault targeting)."""
        return self.l1.peek(addr)

    # ------------------------------------------------------------------
    # Request scheduling
    # ------------------------------------------------------------------
    def _submit(self, req: CoreRequest) -> None:
        if req.kind is OpKind.REPLAY:
            self._values[self._h_replay_accesses] += 1
        else:
            self._values[self._h_accesses] += 1
        # Port model (CacheArray.next_access_delay), inlined: one call
        # per request and the common shape is "first access this cycle".
        l1 = self.l1
        now = self.scheduler.now
        delay = self._hit_latency
        if now > l1._port_cycle:
            l1._port_cycle = now
            l1._port_used = 1
        else:  # now == l1._port_cycle: time never goes backwards
            used = l1._port_used
            if used >= self._l1_ports:
                delay += used // self._l1_ports
            l1._port_used = used + 1
        block = req.addr & ~63  # block_of, inlined
        queue = self._queues.get(block)
        if queue is None:
            queue = self._queues[block] = deque()
        queue.append(req)
        self._post(delay, self._service_block, (block,))

    def _service_block(self, block: int) -> None:
        """Complete satisfiable queued requests; start a transaction for
        the first one that needs more permission."""
        if block in self._active:
            return
        queue = self._queues.get(block)
        if not queue:
            if queue is not None:
                del self._queues[block]
            return
        # The line (identity and state) cannot change synchronously while
        # we drain: on_done callbacks only enqueue work through _submit /
        # the scheduler, so one peek serves the whole loop.  The peek is
        # CacheArray.peek inlined over the interned set list (``block``
        # is already block-aligned): an I-state line counts as absent,
        # exactly like peek returning None.
        set_mask = self._l1_set_mask
        cache_set = self._l1_sets[
            (block >> self._l1_shift) & set_mask
            if set_mask is not None
            else self.l1._set_index(block)
        ]
        line = cache_set.get(block) if cache_set is not None else None
        if line is None or line.state is CoherenceState.I:
            line = None
            can_read = can_write = False
        else:
            can_read = True  # any valid state is readable
            can_write = line.state is CoherenceState.M
        while queue:
            req = queue[0]
            if can_write if req.needs_write else can_read:
                queue.popleft()
                self._perform(req, line)
                continue
            if block in self._writebacks:
                # Eviction of this block still in flight; retry when the
                # writeback completes (see _writeback_done).
                return
            self._begin_miss(req, block, line)
            return
        del self._queues[block]

    def _begin_miss(self, req: CoreRequest, block: int, line: Optional[CacheLine]) -> None:
        """Evict if necessary (blocking), then start the transaction.

        A miss that waits for a dirty victim's writeback comes back
        here once the writeback completes; it is counted, and its MSHR
        span opened, on the first pass only.
        """
        want_m = req.needs_write
        if block in self._evicting:
            self._evicting.discard(block)
        else:
            if req.kind is OpKind.REPLAY:
                self._values[self._h_replay_misses] += 1
            else:
                self._values[self._h_misses] += 1
            s = self.spans
            if s is not None and req.tid:
                # MSHR lifetime: miss start -> _retire_transaction.
                self._mshr_tokens[block] = s.open(
                    req.tid, self._span_track, K_MSHR,
                    self.scheduler.now, block, 1 if want_m else 0, self.node,
                )
        if line is None:
            victim = self.l1.victim_for(block, pinned=self._pinned)
            if victim is not None and self._evict(victim, then_block=block):
                self._evicting.add(block)
                return  # resumes via _writeback_done
        self._start_transaction(block, want_m, req.tid)

    def _evict(self, victim: CacheLine, then_block: Optional[int] = None) -> bool:
        """Evict ``victim``.  Returns True if the caller must wait for a
        blocking writeback before proceeding with ``then_block``."""
        addr = victim.addr
        self._values[self._h_evictions] += 1
        if (self.manage_epochs or not victim.is_dirty()) and self.checker is not None:
            self.checker.epoch_end(self.node, addr, victim.data)
        if self.core is not None:
            self.core.on_invalidation(addr)
        self.l1.remove(addr)
        if victim.is_dirty():
            entry = WritebackEntry(
                addr,
                list(victim.data),
                on_done=(lambda: self._service_block(then_block))
                if then_block is not None
                else (lambda: None),
                state=victim.state,
            )
            self._writebacks[addr] = entry
            self._start_writeback(entry)
            return then_block is not None
        return False

    # ------------------------------------------------------------------
    # Performing accesses
    # ------------------------------------------------------------------
    def _perform(self, req: CoreRequest, line: CacheLine) -> None:
        # CacheArray.touch inlined: refresh LRU recency without a second
        # set lookup (or a method call — one per performed access).
        l1 = self.l1
        l1._use_clock = clock = l1._use_clock + 1
        line.last_used = clock
        kind = req.kind
        checker = self.checker
        addr = req.addr
        if kind is OpKind.PREFETCH:
            req.on_done(0)
            return
        word = (addr & 63) >> 2  # word_index, inlined
        if kind is OpKind.LOAD or kind is OpKind.REPLAY:
            value = line.data[word]
            if kind is OpKind.LOAD and checker is not None:
                checker.check_access(self.node, addr, False)
            req.on_done(value)
            return
        # STORE / ATOMIC: write in place (state M guaranteed).
        data = line.data
        old_value = data[word]
        if self.safetynet is not None:
            self.safetynet.log_write(line.addr, data)
        data[word] = req.value & WORD_MASK
        if checker is not None:
            checker.check_access(self.node, addr, True)
            if kind is OpKind.ATOMIC:
                checker.check_access(self.node, addr, False)
        req.on_done(old_value)

    # ------------------------------------------------------------------
    # State-change helpers used by protocol subclasses
    # ------------------------------------------------------------------
    def _pinned(self, block: int) -> bool:
        """Blocks with outstanding transactions must not be evicted."""
        return block in self._active

    def _install_block(
        self, block: int, state: CoherenceState, data: List[int], tid: int
    ) -> CacheLine:
        """Install a freshly arrived block and open its epoch.

        ``tid`` is the trace id of the transaction that fetched it."""
        victim = self.l1.victim_for(block, pinned=self._pinned)
        if victim is not None:
            # The blocking-eviction policy frees a way before requesting,
            # but a concurrent transaction for another block in the same
            # set can refill it; evict again (non-blocking is safe here
            # only for clean victims; dirty victims ride the writeback
            # buffer and the install proceeds).
            self._evict(victim)
        line = self.l1.install(block, state, data)
        s = self.spans
        if s is not None:
            s.instant(
                tid, self._span_track, K_OWNER,
                self.scheduler.now, block, _STATE_CODE[state] + 1, self.node,
            )
        if self.manage_epochs and self.checker is not None:
            etype = (
                EpochType.READ_WRITE
                if state is CoherenceState.M
                else EpochType.READ_ONLY
            )
            self.checker.epoch_begin(self.node, block, etype, line.data)
        if self.wakes is not None:
            self.wakes.notify()
        return line

    def _upgrade_to_m(self, block: int, tid: int) -> CacheLine:
        """S/O -> M upgrade: close the RO epoch, open an RW epoch.

        ``tid`` is the trace id of the upgrading transaction."""
        line = self.l1.peek(block)
        if line is None:
            raise SimulationError(f"upgrade of absent block 0x{block:x}")
        checker = self.checker if self.manage_epochs else None
        if checker is not None:
            checker.epoch_end(self.node, block, line.data)
        line.state = CoherenceState.M
        s = self.spans
        if s is not None:
            s.instant(
                tid, self._span_track, K_OWNER,
                self.scheduler.now, block,
                _STATE_CODE[CoherenceState.M] + 1, self.node,
            )
        if checker is not None:
            checker.epoch_begin(self.node, block, EpochType.READ_WRITE, line.data)
        if self.wakes is not None:
            self.wakes.notify()
        return line

    def _downgrade_to_o(self, block: int) -> Optional[CacheLine]:
        """M -> O on a forwarded GetS: RW epoch ends, RO epoch begins."""
        line = self.l1.peek(block)
        if line is None:
            return None
        if line.state is CoherenceState.M:
            checker = self.checker if self.manage_epochs else None
            if checker is not None:
                checker.epoch_end(self.node, block, line.data)
            line.state = CoherenceState.O
            s = self.spans
            if s is not None:
                s.instant(
                    0, self._span_track, K_OWNER,
                    self.scheduler.now, block,
                    _STATE_CODE[CoherenceState.O] + 1, self.node,
                )
            if checker is not None:
                checker.epoch_begin(self.node, block, EpochType.READ_ONLY, line.data)
        return line

    def _invalidate_block(self, block: int) -> Optional[List[int]]:
        """Drop the block (remote GetM / Inv).  Returns its data."""
        line = self.l1.peek(block)
        if line is None:
            return None
        data = list(line.data)
        if self.manage_epochs and self.checker is not None:
            self.checker.epoch_end(self.node, block, data)
        if self.core is not None:
            self.core.on_invalidation(block)
        self.l1.remove(block)
        s = self.spans
        if s is not None:
            # Invalidation: the line leaves this cache (state code 0).
            s.instant(
                0, self._span_track, K_OWNER,
                self.scheduler.now, block, 0, self.node,
            )
        if self.wakes is not None:
            self.wakes.notify()
        return data

    def _writeback_done(self, addr: int, stale: bool) -> None:
        entry = self._writebacks.pop(addr, None)
        if entry is None:
            self.stats.incr(f"{self._stat}.unexpected_wb_ack")
            return
        self._values[
            self._h_writebacks_stale if stale else self._h_writebacks
        ] += 1
        entry.on_done()
        if self.wakes is not None:
            self.wakes.notify()

    # ------------------------------------------------------------------
    # Protocol steps (implemented by subclasses)
    # ------------------------------------------------------------------
    def _start_transaction(self, block: int, want_m: bool, tid: int) -> None:
        """Obtain S or M for ``block`` on behalf of the op ``tid``."""
        raise NotImplementedError

    def _start_writeback(self, entry: WritebackEntry) -> None:
        raise NotImplementedError

    def _retire_transaction(self, block: int) -> None:
        """Free the block's MSHR: drop its transaction, end its span."""
        self._active.pop(block, None)
        s = self.spans
        if s is not None:
            token = self._mshr_tokens.pop(block, 0)
            if token:
                s.close(token, self.scheduler.now)

    def _transaction_done(self, block: int) -> None:
        """Subclasses call this once permissions are in place."""
        self._retire_transaction(block)
        self.scheduler.post(1, self._service_block, (block,))
        if self.wakes is not None:
            self.wakes.notify()

    # ------------------------------------------------------------------
    def unexpected(self, what: str) -> None:
        """Record a message the protocol spec does not allow here.

        Fault-free runs must keep this at zero (asserted in tests);
        injected faults can legitimately trigger it, and detection then
        flows through the DVMC checkers rather than simulator errors.
        """
        self.stats.incr(f"{self._stat}.unexpected.{what}")
