"""Cache Coherence checker (paper Section 4.3): epochs, CET, MET.

Each cache keeps a **Cache Epoch Table (CET)** entry per held block:
epoch type (Read-Only / Read-Write), logical begin time, CRC-16 of the
block at epoch begin, and a DataReadyBit (an epoch can begin before its
data arrives).  When an epoch ends, the cache sends an **Inform-Epoch**
to the block's home memory controller — a real network message (block
address, epoch type, begin/end logical times, begin/end data hashes) —
whose traffic is what Figure 7 measures.

Each home's **Memory Epoch Table (MET)** processes Inform-Epochs in
epoch-*begin*-time order (a bounded priority queue re-sorts the nearly
ordered arrival stream) and verifies Plakal-style rules: (1) accesses
happen in appropriate epochs (checked at the CET), (2) Read-Write
epochs never overlap other epochs, (3) the data at an epoch's begin
equals the data at the most recent Read-Write epoch's end.

Each home keeps one begin-sorted heap of queued informs and one
block table.  Queued informs are flat integer tuples (no per-inform
dict allocation), and the rule-2 overlap check queries a begin-sorted
:class:`~repro.dvmc.interval_index.IntervalIndex` per block instead of
scanning epoch history.

Timestamps are stored 16-bit; long-lived epochs are *scrubbed* before
wraparound using a per-CET FIFO that triggers Inform-Open-Epoch /
Inform-Closed-Epoch message pairs, with matching open-epoch tracking
(sharer bitmask / owner id) at the MET.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.common.crc import hash_block
from repro.common.events import Scheduler
from repro.common.logical_time import LogicalTimeBase
from repro.common.stats import StatsRegistry
from repro.common.types import EpochType, ViolationReport, block_of
from repro.config import SystemConfig
from repro.dvmc.interval_index import IntervalIndex
from repro.interconnect.message import Message
from repro.obs.spans import K_EPOCH, K_MET

from repro.coherence.messages import Dvcc

#: How much logical time the MET waits before processing an inform,
#: letting stragglers with earlier begin times arrive first.
MET_SORT_SLACK = 128

#: Cycles between MET priority-queue drain sweeps and CET scrub sweeps.
SWEEP_PERIOD = 500

#: Per-block interval-index bound: beyond this many recorded epochs the
#: oldest are folded into the entry's scalar watermark (exactly the
#: hardware MET's 48-bit summary), so memory stays bounded and the
#: check degrades to the paper's conservative form, never weaker.
MET_INDEX_CAPACITY = 128

#: Flat integer encodings for queued informs (tuple records, no dicts).
_K_EPOCH = 0
_K_OPEN = 1
_K_CLOSED = 2
_ETYPE_FROM_CODE = (EpochType.READ_ONLY, EpochType.READ_WRITE)


class CETEntry:
    """One cache-side epoch record (34 bits in hardware)."""

    __slots__ = (
        "etype",
        "begin",
        "begin_hash",
        "data_ready",
        "ended",
        "end",
        "end_hash",
        "open_informed",
        "span_token",
    )

    def __init__(self, etype: EpochType, begin: int):
        self.etype = etype
        self.begin = begin
        self.begin_hash: Optional[int] = None
        self.data_ready = False
        self.ended = False
        self.end = 0
        self.end_hash: Optional[int] = None
        #: An Inform-Open-Epoch was sent (wraparound scrubbing); the end
        #: must be reported with Inform-Closed-Epoch instead.
        self.open_informed = False
        self.span_token = 0  # open flight-recorder span (0 = none)


class METEntry:
    """Home-side per-block epoch summary (48 bits in hardware).

    The scalar watermarks (``floor_ro`` / ``floor_rw``) carry the
    hardware-faithful conservative state: entry creation time and the
    ends of epochs whose begin is unknown (Inform-Closed-Epoch) or that
    were folded out of the bounded interval index.  The two interval
    indexes hold the recent exact epoch history for the O(log n)
    overlap query.
    """

    __slots__ = (
        "last_ro_end",
        "last_rw_end",
        "last_rw_end_hash",
        "mem_hash",
        "open_ro",
        "open_rw",
        "floor_ro",
        "floor_rw",
        "ro_index",
        "rw_index",
    )

    def __init__(self, created: int, data_hash: int):
        self.last_ro_end = created
        self.last_rw_end = created
        #: None means unknown (after an open RW epoch closed without a
        #: hash — the Inform-Closed-Epoch carries only address + time).
        self.last_rw_end_hash: Optional[int] = data_hash
        #: Hash of the block's DRAM-resident copy, maintained at the
        #: co-located home: set at entry creation and at each applied
        #: writeback.  Memory contents change nowhere else, so DRAM
        #: must hash to this at all times — writebacks and scrubber
        #: passes cross-check it to catch in-memory corruption.
        self.mem_hash: Optional[int] = data_hash
        self.open_ro: Set[int] = set()
        self.open_rw: Optional[int] = None
        self.floor_ro = created
        self.floor_rw = created
        self.ro_index = IntervalIndex()
        self.rw_index = IntervalIndex()


class CoherenceChecker:
    """System-wide DVCC: one CET per cache, one MET per home."""

    def __init__(
        self,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        logical_time: LogicalTimeBase,
        home_of: Callable[[int], int],
        memories,  # node -> MainMemory (for MET entry creation)
        send: Callable[[Message], None],
        violations: Callable[[ViolationReport], None],
    ):
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.lt = logical_time
        self.home_of = home_of
        self.memories = memories
        self.send = send
        self.violations = violations
        num = config.num_nodes
        self._cet: List[Dict[int, CETEntry]] = [dict() for _ in range(num)]
        #: MET: ``_met[home]`` maps block -> METEntry.
        self._met: List[Dict[int, METEntry]] = [dict() for _ in range(num)]
        #: Inform queues: one begin-sorted heap of flat tuple records
        #: per home.
        self._pq: List[list] = [[] for _ in range(num)]
        self._pq_seq = itertools.count()
        #: Scrub FIFOs: (block, begin_full) per epoch, per node.
        self._scrub_fifo: List[List[Tuple[int, int]]] = [[] for _ in range(num)]
        self._wrap_horizon = (1 << config.dvmc.timestamp_bits) // 2
        #: Per-block hash memo: block -> (words-at-hash-time, hash).
        #: hash_block runs on every epoch begin/end and MET update, and
        #: most epochs open and close over unchanged data, so a content
        #: compare (one C-level list ==) replaces most CRC passes.  The
        #: stored words are a snapshot, never the live cache line, so a
        #: mutated (or fault-corrupted) block always misses the memo —
        #: the memo can never mask real corruption.
        self._hash_memo: Dict[int, Tuple[List[int], int]] = {}
        self._stat_open_informs = [f"dvcc.{n}.open_informs" for n in range(num)]

        # Int-slot handles for the per-inform/per-epoch increments
        # (these fire once per epoch event / inform).
        def handles(name: str) -> List[int]:
            return [stats.handle(f"dvcc.{n}.{name}") for n in range(num)]

        self._h_epochs_begun = handles("epochs_begun")
        self._h_informs_sent = handles("informs_sent")
        self._h_informs_processed = handles("informs_processed")
        self._h_pq_forced = handles("pq_forced_drains")
        self._h_violations = handles("violations")
        self._values = stats.values
        #: Flight recorder (None unless built with spans=True; see obs.spans).
        self.spans = None
        self._span_cet_tracks: List[int] = []
        self._span_met_tracks: List[int] = []
        scheduler.post(SWEEP_PERIOD, self._sweep)

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; CET and MET tracks per node."""
        self.spans = spans
        num = self.config.num_nodes
        self._span_cet_tracks = [spans.track(f"cc.{n}") for n in range(num)]
        self._span_met_tracks = [spans.track(f"met.{n}") for n in range(num)]

    def obs_snapshot(self) -> dict:
        """Observable interface: CET/MET occupancy + checking effort."""
        values = self._values

        def total(handles: List[int]) -> int:
            return sum(values[h] for h in handles)

        return {
            "cet_entries": sum(len(cet) for cet in self._cet),
            "cet_open": sum(
                sum(1 for e in cet.values() if not e.ended)
                for cet in self._cet
            ),
            "met_entries": sum(len(met) for met in self._met),
            "pq_depth": sum(len(pq) for pq in self._pq),
            "pq_capacity": self.config.dvmc.priority_queue_entries,
            "pq_forced_drains": total(self._h_pq_forced),
            "informs_sent": total(self._h_informs_sent),
            "informs_processed": total(self._h_informs_processed),
            "epochs_begun": total(self._h_epochs_begun),
            "hash_memo_entries": len(self._hash_memo),
            "violations": total(self._h_violations),
        }

    def _hash_block(self, block: int, data) -> int:
        """Hash ``data`` with a per-block memo keyed on content."""
        memo = self._hash_memo.get(block)
        if memo is not None and memo[0] == data:
            return memo[1]
        value = hash_block(data)
        self._hash_memo[block] = (list(data), value)
        return value

    # ------------------------------------------------------------------
    # CET side.  The cache controllers call these directly (the system
    # builder hands each controller this checker).  ``data`` is the
    # live block, read before the call returns and never kept; None
    # means the data has not arrived yet (snooping epochs open at the
    # serialization point, and ``epoch_data`` supplies the hash when
    # the block lands).  ``lt`` is an explicit logical timestamp for
    # protocols whose epochs change at serialization points (snooping);
    # None means now.
    # ------------------------------------------------------------------
    def epoch_begin(
        self,
        node: int,
        addr: int,
        etype: EpochType,
        data: Optional[list],
        lt: Optional[int] = None,
    ) -> None:
        block = block_of(addr)
        cet = self._cet[node]
        if block in cet and not cet[block].ended:
            # The protocol opened an epoch over a live one: itself a
            # coherence anomaly worth flagging.
            self._violate(
                node, "epoch-begin-over-open", f"block 0x{block:x}", addr=block
            )
        entry = CETEntry(etype, self.lt.now(node) if lt is None else lt)
        if data is not None:
            entry.begin_hash = self._hash_block(block, data)
            entry.data_ready = True
        cet[block] = entry
        s = self.spans
        if s is not None:
            # Epochs belong to no single op (tid 0); forensics joins
            # them to transactions by block address.
            entry.span_token = s.open(
                0, self._span_cet_tracks[node], K_EPOCH,
                self.scheduler.now, block,
                1 if etype is EpochType.READ_WRITE else 0, node,
            )
        self._scrub_fifo[node].append((block, entry.begin))
        if len(self._scrub_fifo[node]) > self.config.dvmc.scrub_fifo_entries:
            self._scrub_check(node)
        self._values[self._h_epochs_begun[node]] += 1

    def epoch_data(self, node: int, addr: int, data: list) -> None:
        block = block_of(addr)
        entry = self._cet[node].get(block)
        if entry is None:
            self._violate(
                node, "data-without-epoch", f"block 0x{block:x}", addr=block
            )
            return
        if not entry.data_ready:
            entry.begin_hash = self._hash_block(block, data)
            entry.data_ready = True
        if entry.ended:
            # Degenerate epoch (block handed over before data arrived).
            if entry.end_hash is None:
                entry.end_hash = entry.begin_hash
            self._finish_epoch(node, block, entry)

    def epoch_end(
        self,
        node: int,
        addr: int,
        data: Optional[list],
        lt: Optional[int] = None,
    ) -> None:
        block = block_of(addr)
        entry = self._cet[node].get(block)
        if entry is None:
            self._violate(
                node, "end-without-epoch", f"block 0x{block:x}", addr=block
            )
            return
        if entry.ended:
            self._violate(
                node, "double-epoch-end", f"block 0x{block:x}", addr=block
            )
            return
        entry.ended = True
        entry.end = self.lt.now(node) if lt is None else lt
        if data is not None:
            entry.end_hash = self._hash_block(block, data)
        elif entry.data_ready:
            entry.end_hash = entry.begin_hash
        if entry.data_ready:
            self._finish_epoch(node, block, entry)
        # else: wait for epoch_data to supply the hashes.

    def _finish_epoch(self, node: int, block: int, entry: CETEntry) -> None:
        del self._cet[node][block]
        s = self.spans
        if s is not None and entry.span_token:
            s.close(entry.span_token, self.scheduler.now)
            entry.span_token = 0
        home = self.home_of(block)
        if entry.open_informed:
            self._send_inform(
                node,
                home,
                Dvcc.INFORM_CLOSED_EPOCH,
                block,
                entry.etype,
                end=entry.end,
            )
        else:
            bh = entry.begin_hash
            eh = entry.end_hash
            self._send_inform(
                node,
                home,
                Dvcc.INFORM_EPOCH,
                block,
                entry.etype,
                begin=entry.begin,
                end=entry.end,
                begin_hash=-1 if bh is None else bh,
                end_hash=-1 if eh is None else eh,
            )

    def check_access(self, node: int, addr: int, is_store: bool) -> None:
        """Rule 1: accesses happen within appropriate epochs.

        This check stays synchronous in every mode: the verdict depends
        on CET state *at access time*, and a store must drop the hash
        memo before the block's next epoch event re-hashes it.
        """
        entry = self._cet[node].get(block_of(addr))
        if entry is None:
            self._violate(
                node,
                "access-without-epoch",
                f"{'store' if is_store else 'load'} 0x{addr:x}",
                addr=addr,
            )
            return
        if is_store:
            # The store is about to change the block: drop the memoised
            # hash so the next epoch event re-hashes the new contents.
            self._hash_memo.pop(block_of(addr), None)
            if entry.etype is not EpochType.READ_WRITE or entry.ended:
                self._violate(
                    node, "store-outside-rw-epoch", f"0x{addr:x}", addr=addr
                )

    def cet_occupancy(self, node: int) -> int:
        return len(self._cet[node])

    # ------------------------------------------------------------------
    # Scrubbing (timestamp wraparound, paper 4.3 "Logical Time")
    # ------------------------------------------------------------------
    def _scrub_check(self, node: int) -> None:
        fifo = self._scrub_fifo[node]
        now = self.lt.now(node)
        keep: List[Tuple[int, int]] = []
        for block, begin in fifo:
            entry = self._cet[node].get(block)
            if entry is None or entry.begin != begin or entry.open_informed:
                continue  # epoch already over (or renumbered, or informed)
            if now - begin >= self._wrap_horizon:
                entry.open_informed = True
                bh = entry.begin_hash
                self._send_inform(
                    node,
                    self.home_of(block),
                    Dvcc.INFORM_OPEN_EPOCH,
                    block,
                    entry.etype,
                    begin=entry.begin,
                    begin_hash=-1 if bh is None else bh,
                )
                self.stats.incr(self._stat_open_informs[node])
            else:
                keep.append((block, begin))
        self._scrub_fifo[node] = keep

    # ------------------------------------------------------------------
    # Inform transport
    # ------------------------------------------------------------------
    def _send_inform(
        self,
        src: int,
        dst: int,
        kind: Dvcc,
        block: int,
        etype: EpochType,
        begin: int = -1,
        end: int = -1,
        begin_hash: int = -1,
        end_hash: int = -1,
    ) -> None:
        """Build an inform on the message's int slots.

        ``-1`` marks an absent time/hash, matching the flat MET record
        encoding.
        """
        self._values[self._h_informs_sent[src]] += 1
        msg = Message(
            src,
            dst,
            kind,
            addr=block,
            size_bytes=self.config.network.inform_epoch_bytes,
        )
        msg.etype = 1 if etype is EpochType.READ_WRITE else 0
        msg.t_begin = begin
        msg.t_end = end
        msg.h_begin = begin_hash
        msg.h_end = end_hash
        self.send(msg)

    def handle_message(self, msg: Message) -> None:
        """One inform arriving at a home memory controller's MET.

        The inform is queued as a flat tuple record on the home's
        begin-sorted heap, then the home drains.  Record layout:
        ``(sort_key, seq, kind, src, block, etype, begin, end,
        begin_hash, end_hash)`` with -1 for absent hashes/times.  All
        inform kinds ride the same queue; an Inform-Closed-Epoch sorts
        by its end time, which keeps it behind its paired
        Inform-Open-Epoch (end >= begin).
        """
        home = msg.dst
        kind = msg.kind
        block = block_of(msg.addr)
        etype_code = msg.etype
        if etype_code < 0:
            etype_code = 0
        if kind is Dvcc.INFORM_EPOCH:
            begin = msg.t_begin
            if begin < 0:
                begin = 0
            record = (
                begin,
                next(self._pq_seq),
                _K_EPOCH,
                msg.src,
                block,
                etype_code,
                begin,
                msg.t_end,
                msg.h_begin,
                msg.h_end,
            )
        elif kind is Dvcc.INFORM_OPEN_EPOCH:
            begin = msg.t_begin
            if begin < 0:
                begin = 0
            record = (
                begin,
                next(self._pq_seq),
                _K_OPEN,
                msg.src,
                block,
                etype_code,
                begin,
                -1,
                msg.h_begin,
                -1,
            )
        else:  # INFORM_CLOSED_EPOCH sorts by its end time
            end = msg.t_end
            record = (
                end,
                next(self._pq_seq),
                _K_CLOSED,
                msg.src,
                block,
                etype_code,
                -1,
                end,
                -1,
                -1,
            )
        pq = self._pq[home]
        heapq.heappush(pq, record)
        if len(pq) > self.config.dvmc.priority_queue_entries:
            # Hardware's bounded queue: evict (process) the oldest
            # entry immediately rather than grow without bound.
            self._values[self._h_pq_forced[home]] += 1
            self._drain(home, force_one=True)
        self._drain(home)

    # ------------------------------------------------------------------
    # MET side
    # ------------------------------------------------------------------
    def home_request(self, home: int, addr: int) -> None:
        """Create the MET entry at first request (paper 4.3)."""
        block = block_of(addr)
        met = self._met[home]
        if block not in met:
            data = self.memories[home].read_block(block)
            met[block] = METEntry(
                self.lt.now(home), self._hash_block(block, data)
            )

    def memory_written(
        self, home: int, addr: int, old_data: list, new_data: list
    ) -> None:
        """A writeback is being applied at ``home``.

        Rule 3 extended to DRAM residency: the data being replaced must
        still hash to what the MET last saw stored there — anything
        else means the block was corrupted while memory-resident.
        """
        block = block_of(addr)
        entry = self._met[home].get(block)
        if entry is None:
            # First touch is the writeback itself; the lazy MET entry
            # created later will hash post-writeback memory.
            return
        old_hash = self._hash_block(block, old_data)
        if entry.mem_hash is not None and old_hash != entry.mem_hash:
            self._violate(
                home,
                "data-propagation",
                f"block 0x{block:x}: memory holds hash {old_hash:#06x} "
                f"at writeback, last stored {entry.mem_hash:#06x}",
                addr=block,
            )
        entry.mem_hash = self._hash_block(block, new_data)

    def verify_memory(self) -> None:
        """Scrubber pass: DRAM contents of every MET-tracked block must
        hash to the value recorded when they were last stored."""
        for home, met in enumerate(self._met):
            for block, entry in met.items():
                if entry.mem_hash is None:
                    continue
                got = self._hash_block(
                    block, self.memories[home].read_block(block)
                )
                if got != entry.mem_hash:
                    self._violate(
                        home,
                        "data-propagation",
                        f"block 0x{block:x}: scrub reads hash "
                        f"{got:#06x}, last stored {entry.mem_hash:#06x}",
                        addr=block,
                    )

    def _met_entry(self, home: int, block: int) -> METEntry:
        met = self._met[home]
        entry = met.get(block)
        if entry is None:
            # Shouldn't happen fault-free (home_request precedes epochs),
            # but injected faults can reorder things; create leniently.
            data = self.memories[home].read_block(block)
            entry = METEntry(0, self._hash_block(block, data))
            met[block] = entry
        return entry

    def _drain(self, home: int, force_one: bool = False) -> None:
        """Process queued informs in begin order once they are
        :data:`MET_SORT_SLACK` old; ``force_one`` takes the oldest
        regardless of age (the bounded queue's eviction)."""
        pq = self._pq[home]
        now = self.lt.now(home)
        process = self._process_inform
        while pq and (force_one or now - pq[0][0] >= MET_SORT_SLACK):
            process(home, heapq.heappop(pq))
            force_one = False

    def flush(self) -> None:
        """Process every queued inform (end of simulation)."""
        for home, pq in enumerate(self._pq):
            while pq:
                self._process_inform(home, heapq.heappop(pq))

    def _process_inform(self, home: int, record: tuple) -> None:
        self._values[self._h_informs_processed[home]] += 1
        (
            _key,
            _seq,
            kind,
            src,
            block,
            etype_code,
            begin,
            end,
            begin_hash,
            end_hash,
        ) = record
        s = self.spans
        if s is not None:
            s.instant(
                0, self._span_met_tracks[home], K_MET,
                self.scheduler.now, block, src, home,
            )
        if kind == _K_CLOSED:
            self._met_close_open(home, block, src, etype_code, end)
            return
        entry = self._met_entry(home, block)
        is_rw = etype_code == 1

        # Rule 2: Read-Write epochs do not overlap other epochs.  The
        # interval index answers the exact-overlap query in O(log n);
        # the scalar floors cover entry creation, unknown-begin closed
        # epochs, and history folded out of the bounded index.  An open
        # inform has no end yet, so it conflicts with any later end
        # (query against [begin, inf)); a degenerate epoch (end ==
        # begin) queries as a point so it still conflicts with an epoch
        # spanning it.
        if kind == _K_EPOCH:
            query_end = end if end > begin else begin + 1
        else:
            query_end = None
        if is_rw:
            limit = (
                entry.floor_rw
                if entry.floor_rw >= entry.floor_ro
                else entry.floor_ro
            )
            for index in (entry.rw_index, entry.ro_index):
                m = (
                    index.max_overlap_end(begin, query_end)
                    if query_end is not None
                    else index.max_end()
                )
                if m is not None and m > limit:
                    limit = m
        else:
            limit = entry.floor_rw
            index = entry.rw_index
            m = (
                index.max_overlap_end(begin, query_end)
                if query_end is not None
                else index.max_end()
            )
            if m is not None and m > limit:
                limit = m
        if begin < limit:
            etype = _ETYPE_FROM_CODE[etype_code]
            self._violate(
                home,
                "epoch-overlap",
                f"block 0x{block:x}: {etype.value} epoch from node {src} "
                f"begins at {begin} before a conflicting epoch ended at {limit}",
                addr=block,
            )
        if entry.open_rw is not None and entry.open_rw != src:
            self._violate(
                home,
                "epoch-overlap-open",
                f"block 0x{block:x}: epoch begins while node "
                f"{entry.open_rw} holds an open RW epoch",
                addr=block,
            )
        open_ro = entry.open_ro
        if is_rw and open_ro and (len(open_ro) > 1 or src not in open_ro):
            self._violate(
                home,
                "epoch-overlap-open",
                f"block 0x{block:x}: RW epoch while RO epochs open",
                addr=block,
            )

        # Rule 3: data propagates intact from the last RW epoch.
        if (
            begin_hash != -1
            and entry.last_rw_end_hash is not None
            and begin_hash != entry.last_rw_end_hash
        ):
            self._violate(
                home,
                "data-propagation",
                f"block 0x{block:x}: epoch begins with hash "
                f"{begin_hash:#06x}, last RW epoch ended with "
                f"{entry.last_rw_end_hash:#06x}",
                addr=block,
            )

        if kind == _K_OPEN:
            if is_rw:
                entry.open_rw = src
            else:
                entry.open_ro.add(src)
            return

        if is_rw:
            if end > entry.last_rw_end:
                entry.last_rw_end = end
                entry.last_rw_end_hash = None if end_hash == -1 else end_hash
            index = entry.rw_index
            index.add(begin, end)
            if len(index) > MET_INDEX_CAPACITY:
                folded = index.drop_oldest(MET_INDEX_CAPACITY // 2)
                if folded is not None and folded > entry.floor_rw:
                    entry.floor_rw = folded
        else:
            if end_hash != -1 and begin_hash != -1 and end_hash != begin_hash:
                self._violate(
                    home,
                    "ro-epoch-data-changed",
                    f"block 0x{block:x} changed during a read-only epoch",
                    addr=block,
                )
            if end > entry.last_ro_end:
                entry.last_ro_end = end
            index = entry.ro_index
            index.add(begin, end)
            if len(index) > MET_INDEX_CAPACITY:
                folded = index.drop_oldest(MET_INDEX_CAPACITY // 2)
                if folded is not None and folded > entry.floor_ro:
                    entry.floor_ro = folded

    def _met_close_open(
        self, home: int, block: int, src: int, etype_code: int, end: int
    ) -> None:
        """Inform-Closed-Epoch: only address and end time (paper 4.3).

        With no begin time the epoch cannot enter the interval index;
        its end raises the scalar floor instead (the conservative
        hardware check), exactly as the paper's 48-bit MET would.
        """
        entry = self._met_entry(home, block)
        if etype_code == 1:
            if entry.open_rw == src:
                entry.open_rw = None
            entry.last_rw_end = max(entry.last_rw_end, end)
            entry.last_rw_end_hash = None  # unknown until the next epoch
            entry.floor_rw = max(entry.floor_rw, end)
        else:
            entry.open_ro.discard(src)
            entry.last_ro_end = max(entry.last_ro_end, end)
            entry.floor_ro = max(entry.floor_ro, end)

    # ------------------------------------------------------------------
    def _sweep(self) -> None:
        for node in range(self.config.num_nodes):
            self._scrub_check(node)
            self._drain(node)
        self.scheduler.post(SWEEP_PERIOD, self._sweep)

    def _violate(
        self, node: int, kind: str, detail: str, addr: int = 0
    ) -> None:
        self._values[self._h_violations[node]] += 1
        s = self.spans
        if s is not None:
            s.violation(
                "CC", node, self.scheduler.now, addr=addr, detail=detail
            )
        self.violations(
            ViolationReport("CC", self.scheduler.now, node, kind, detail)
        )
