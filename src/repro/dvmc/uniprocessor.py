"""Uniprocessor Ordering checker (paper Section 4.1).

Every committed memory operation is replayed in program order in the
verification stage.  Stores are speculative during replay and write a
dedicated **Verification Cache (VC)** instead of architectural state;
replayed loads read the VC first and fall back to the L1 (bypassing the
write buffer).  A replayed load value differing from the original
execution signals a Uniprocessor Ordering violation — unless the block
was invalidated while the load was speculative, in which case the core
treats it as load-order mis-speculation and squashes (paper 4.1).

A VC entry for word *w* is allocated when a store to *w* commits and
freed when the store performs; at deallocation the value written to the
cache must equal the VC value (Appendix A, Proof 1).  Under RMO, load
values may live in the VC after execution and satisfy replays without
touching the L1 (the paper's single-thread-verification optimisation),
which is why RMO shows no replay misses.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.common.types import ViolationReport, word_of
from repro.config import SystemConfig
from repro.obs.spans import K_REPLAY, K_UO


class VCEntry:
    """Per-word VC state: latest committed value + outstanding stores.

    ``load_seq`` marks entries whose value was deposited by an executed
    load (the RMO optimisation) rather than a committed store; replays
    only compare against a load-deposited value if it is the replaying
    load's own (a younger load may legally have observed a different
    value from a remote writer).
    """

    __slots__ = (
        "value",
        "count",
        "oldest_commit_cycle",
        "last_used",
        "load_seq",
        "store_seq",
        "reported",
    )

    def __init__(self, value: int, count: int, cycle: int, load_seq=None):
        self.value = value
        self.count = count  # committed-but-unperformed stores to this word
        self.oldest_commit_cycle = cycle
        self.last_used = cycle
        self.load_seq = load_seq
        #: Program-order seq of the newest committed store held in
        #: ``value``.  An older load's replay can be delayed past a
        #: younger store's commit (the verify pump keeps running while
        #: the replay's stage latency elapses); the seq makes such a
        #: replay skip its vacuous compare instead of flagging the
        #: younger value as a mismatch.
        self.store_seq: Optional[int] = None
        self.reported = False  # store-lost already reported at least once


class UniprocessorOrderingChecker:
    """Per-core UO checker owning the Verification Cache."""

    def __init__(
        self,
        node: int,
        scheduler: Scheduler,
        stats: StatsRegistry,
        config: SystemConfig,
        controller,
        violations: Callable[[ViolationReport], None],
        rmo_mode: bool,
    ):
        self.node = node
        self.scheduler = scheduler
        self.stats = stats
        self.config = config
        self.controller = controller
        self.violations = violations
        #: RMO optimisation: keep executed load values in the VC.
        self.rmo_mode = rmo_mode
        #: WaitSet notified when a live VC entry frees (set by the
        #: builder): VC backpressure is one of the verify pump's
        #: parking conditions.
        self.wakes = None
        self._vc: Dict[int, VCEntry] = {}
        self._capacity = config.dvmc.verification_cache_entries
        self._stat = f"uo.{node}"
        # Precomputed per-event stat keys (the replay/commit paths run
        # once per memory operation).
        self._stat_store_allocs = f"uo.{node}.vc_store_allocs"
        self._stat_vc_hits = f"uo.{node}.replay_vc_hits"
        self._stat_stale = f"uo.{node}.replay_stale_entries"
        self._stat_cache_reads = f"uo.{node}.replay_cache_reads"
        # Handle plane for the per-operation increments; the string
        # keys above remain the obs_snapshot read keys.
        self._h_store_allocs = stats.handle(self._stat_store_allocs)
        self._h_vc_hits = stats.handle(self._stat_vc_hits)
        self._h_cache_reads = stats.handle(self._stat_cache_reads)
        self._values = stats.values
        self._scan_interval = config.dvmc.membar_injection_interval
        #: Flight recorder (None unless built with spans=True; see obs.spans).
        self.spans = None
        self._span_track = 0
        scheduler.post(self._scan_interval, self._scan_stale)

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; UO verdicts share one track."""
        self.spans = spans
        self._span_track = spans.track("checker.uo")

    # -- store path --------------------------------------------------------
    def commit_store(self, seq: int, addr: int, value: int) -> bool:
        """Replay a committed store into the VC.

        Returns False when the VC is full of live store entries; the
        verification stage must stall and retry (backpressure).
        """
        word = word_of(addr)
        entry = self._vc.get(word)
        now = self.scheduler.now
        if entry is None:
            if len(self._vc) >= self._capacity and not self._evict_clean():
                return False
            entry = VCEntry(value, 0, now)
            self._vc[word] = entry
        if entry.count == 0:
            entry.oldest_commit_cycle = now
        entry.value = value
        entry.count += 1
        entry.last_used = now
        entry.load_seq = None
        entry.store_seq = seq
        self._values[self._h_store_allocs] += 1
        s = self.spans
        if s is not None:
            tid = s.tid_for(self.node, seq)
            if tid:
                s.instant(
                    tid, self._span_track, K_UO, now, addr, seq, self.node
                )
        return True

    def store_performed(self, seq: int, addr: int, value_written: int) -> None:
        """A store reached the cache; free its VC entry and check it."""
        word = word_of(addr)
        entry = self._vc.get(word)
        if entry is None or entry.count == 0:
            self._violate(
                "store-no-vc-entry",
                f"store seq {seq} performed at 0x{addr:x} with no live VC entry",
                addr=addr,
                seq=seq,
            )
            return
        entry.count -= 1
        if entry.count == 0:
            if entry.value != value_written:
                self._violate(
                    "store-value-mismatch",
                    f"word 0x{word:x}: cache got 0x{value_written:x}, "
                    f"VC holds 0x{entry.value:x}",
                    addr=addr,
                    seq=seq,
                )
            if self.rmo_mode:
                entry.last_used = self.scheduler.now
            else:
                del self._vc[word]
            # Entry went dead (evictable or gone): a VC-full-stalled
            # verify pump may now make progress.
            if self.wakes is not None:
                self.wakes.notify()

    # -- load path -----------------------------------------------------------
    def note_load_executed(self, addr: int, value: int, seq: Optional[int] = None) -> None:
        """Record an executed load's value (RMO VC optimisation).

        The value recorded is the one supplied by the cache/forwarding
        path *before* any downstream (LSQ) corruption can touch it, so
        a later replay-compare catches wrong-value faults.
        """
        if not self.rmo_mode:
            return
        word = word_of(addr)
        entry = self._vc.get(word)
        if entry is None:
            if len(self._vc) >= self._capacity and not self._evict_clean():
                return  # optimisation only; dropping is safe
            self._vc[word] = VCEntry(value, 0, self.scheduler.now, load_seq=seq)
        elif entry.count == 0:
            entry.value = value
            entry.last_used = self.scheduler.now
            entry.load_seq = seq

    def note_atomic(self, addr: int, new_value: int) -> None:
        """An atomic reached its verification slot: in program order its
        value supersedes any load-deposited value for the word."""
        entry = self._vc.get(word_of(addr))
        if entry is not None and entry.count == 0:
            entry.value = new_value
            entry.last_used = self.scheduler.now
            entry.load_seq = None

    def replay_load(
        self,
        addr: int,
        original_value: Optional[int],
        done: Callable[[bool, int], None],
        seq: Optional[int] = None,
        tid: int = 0,
    ) -> None:
        """Replay a committed load; ``done(mismatch, replay_value)``.

        ``tid`` is the load's flight-recorder trace id (0 = untraced)."""
        s = self.spans
        if s is not None and tid:
            s.instant(
                tid, self._span_track, K_REPLAY, self.scheduler.now,
                addr, -1 if seq is None else seq, self.node,
            )
        word = word_of(addr)
        entry = self._vc.get(word)
        if entry is not None and entry.count == 0 and not self.rmo_mode:
            # Residual load-value entry from an RMO section; outside RMO
            # only live store entries may satisfy replays.
            entry = None
        if entry is not None:
            entry.last_used = self.scheduler.now
            if entry.load_seq is not None and entry.load_seq != seq:
                # The entry holds a *different* load's observation: the
                # words may legally differ (a remote store intervened
                # between the two loads under RMO); the compare would be
                # vacuous, so skip it.
                self.stats.incr(self._stat_stale)
                done(False, original_value if original_value is not None else 0)
                return
            if (
                seq is not None
                and entry.store_seq is not None
                and entry.store_seq > seq
            ):
                # The VC value was committed by a store *younger* than
                # the replaying load (the pump raced ahead while this
                # replay's stage latency elapsed); the value the load
                # should compare against is gone, so the compare is
                # vacuous.
                self.stats.incr(self._stat_stale)
                done(False, original_value if original_value is not None else 0)
                return
            self._values[self._h_vc_hits] += 1
            done(entry.value != original_value, entry.value)
            return
        self._values[self._h_cache_reads] += 1
        self.controller.replay_load(
            addr, lambda value: done(value != original_value, value), tid
        )

    def flush_clean_entries(self) -> None:
        """Drop count==0 entries (called on consistency-model switches:
        load-value entries from one model must not leak into another)."""
        for word in [w for w, e in self._vc.items() if e.count == 0]:
            del self._vc[word]

    def report_mismatch(self, addr: int, original, replayed, seq: int = -1) -> None:
        self._violate(
            "load-replay-mismatch",
            f"load 0x{addr:x}: executed 0x{original:x}, replayed 0x{replayed:x}",
            addr=addr,
            seq=seq,
        )

    # -- housekeeping ----------------------------------------------------------
    def _evict_clean(self) -> bool:
        """Drop the LRU count==0 (load-value) entry; False if none."""
        victim_word, victim = None, None
        for word, entry in self._vc.items():
            if entry.count == 0 and (
                victim is None or entry.last_used < victim.last_used
            ):
                victim_word, victim = word, entry
        if victim_word is None:
            return False
        del self._vc[victim_word]
        return True

    def _scan_stale(self) -> None:
        """Detect stores that never perform (e.g. lost to a corrupted
        write-buffer address): a live VC entry far older than any normal
        store latency means the store was lost."""
        now = self.scheduler.now
        for word, entry in self._vc.items():
            if entry.count > 0 and now - entry.oldest_commit_cycle > self._scan_interval:
                self._violate(
                    "store-lost",
                    f"store to 0x{word:x} committed at cycle "
                    f"{entry.oldest_commit_cycle} never performed",
                    addr=word,
                )
                entry.oldest_commit_cycle = now  # report once per interval
                entry.reported = True
        # Re-arm only while other events are queued or some live store
        # has yet to be reported lost; otherwise the machine is done
        # (or dead and fully diagnosed) and an unconditional reschedule
        # would keep a bare ``Scheduler.run()`` from ever draining.
        if self.scheduler.pending() or any(
            e.count > 0 and not e.reported for e in self._vc.values()
        ):
            self.scheduler.post(self._scan_interval, self._scan_stale)

    def _violate(
        self, kind: str, detail: str, addr: int = 0, seq: int = -1
    ) -> None:
        self.stats.incr(f"{self._stat}.violations")
        s = self.spans
        if s is not None:
            s.violation(
                "UO", self.node, self.scheduler.now,
                addr=addr, seq=seq, detail=detail,
            )
        self.violations(
            ViolationReport("UO", self.scheduler.now, self.node, kind, detail)
        )

    @property
    def vc_occupancy(self) -> int:
        return len(self._vc)

    def obs_snapshot(self) -> dict:
        """Observable interface: VC state + replay accounting.

        Replay counters live in the shared stats registry (they are
        deterministic run output); this view adds live VC occupancy so
        backpressure is visible without poking checker internals.
        """
        stats = self.stats
        vc_hits = stats.counter(self._stat_vc_hits)
        cache_reads = stats.counter(self._stat_cache_reads)
        stale = stats.counter(self._stat_stale)
        return {
            "vc_occupancy": len(self._vc),
            "vc_capacity": self._capacity,
            "vc_live_stores": sum(
                1 for entry in self._vc.values() if entry.count > 0
            ),
            "vc_store_allocs": stats.counter(self._stat_store_allocs),
            "replays": vc_hits + cache_reads + stale,
            "replay_vc_hits": vc_hits,
            "replay_cache_reads": cache_reads,
            "replay_stale_entries": stale,
            "violations": stats.counter(f"{self._stat}.violations"),
        }
