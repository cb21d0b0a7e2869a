"""Transaction flight recorder: ints-only causal spans per memory op.

On a machine built with ``build_system(..., spans=True)`` every memory
operation is assigned a **trace id** at issue (``processor/core.py``)
and child spans are opened/closed at every hand-off the transaction
makes on its way through the machine: write-buffer residency,
cache-controller MSHR lifetime, per-link express-plane reservations
and message flights, directory/snooping ownership transitions,
SafetyNet checkpoints, and finally the DVMC verdicts (AR reorder
check, UO commit/replay, CC epoch + MET processing).  The id travels
as an argument: the core passes it with each cache request, a miss
hands it to the transaction it starts, and that transaction's
messages carry it in ``Message.tid``.  Infrastructure
spans that belong to no single operation (epochs, MET records,
checkpoints, ownership hand-offs no miss started) are recorded with
trace id 0; forensics joins them to transactions by block.

Closed spans are flat 8-tuples of ints in a ring that keeps the *last*
:data:`CAPACITY` records (the tail right before a violation is what
forensics wants); at most :data:`CAPACITY` operations get a trace id.
Recording never feeds back into the simulation: a recorded run is
bit-identical to a plain run (asserted by
``tests/integration/test_spans_identity.py``).

Consumers: :mod:`repro.obs.chrome_trace` (Perfetto export) and
:mod:`repro.obs.forensics` (violation post-mortems).
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Tuple

from repro.common.types import OpType

#: Closed spans the ring keeps, and operations given a trace id.
CAPACITY = 65536

#: Op-class codes (the ``a`` column of :data:`K_OP` and :data:`K_AR`
#: records) and their names, in :class:`~repro.common.types.OpType`
#: order.
OP_CLASS = {op: i for i, op in enumerate(OpType)}
OP_CLASS_NAMES = tuple(op.value for op in OpType)

# -- span kind codes (the ``kind`` column) ----------------------------------
K_OP = 0  #: root span: one memory operation     a=op class  b=addr  c=seq
K_WB = 1  #: write-buffer residency              a=addr      b=value c=seq
K_MSHR = 2  #: cache-controller miss lifetime    a=block     b=kind  c=node
K_MSG = 3  #: message flight (send -> deliver)   a=addr      b=src   c=dst
K_LINK = 4  #: one link's reserved occupancy     a=addr      b=src   c=dst
K_BCAST = 5  #: address-network broadcast        a=addr      b=src   c=order
K_OWNER = 6  #: ownership transition (instant)   a=block     b=owner+1  c=home
K_CKPT = 7  #: SafetyNet checkpoint (instant)    a=index     b=node count
K_AR = 8  #: AR reorder verdict (instant)        a=op class  b=seq   c=node
K_UO = 9  #: UO store commit (instant)           a=addr      b=seq   c=node
K_REPLAY = 10  #: UO verification replay load    a=addr      b=seq   c=node
K_EPOCH = 11  #: CC CET coherence epoch          a=block     b=etype c=node
K_MET = 12  #: CC MET epoch processed (instant)  a=block     b=src   c=home
K_VIOL = 13  #: checker violation (instant)      a=addr      b=node  c=checker

KIND_NAMES = (
    "op",
    "wb",
    "mshr",
    "msg",
    "link",
    "bcast",
    "owner",
    "ckpt",
    "ar",
    "uo",
    "replay",
    "epoch",
    "met",
    "violation",
)

#: ``c`` column of :data:`K_VIOL` records.
CHECKER_CODES = {"AR": 1, "UO": 2, "CC": 3}

#: One closed span: (tid, track, kind, t0, t1, a, b, c).
Span = Tuple[int, int, int, int, int, int, int, int]


class SpanRecorder:
    """Ring-buffered span store with interned track names.

    A *track* is one timeline in the exported trace (one per core,
    cache, link, home node, checker...).  A *trace id* (``tid``) ties
    every span belonging to one memory operation together; ``tid 0``
    marks infrastructure spans (epochs, MET records, checkpoints,
    ownership hand-offs) that belong to no single operation.

    Root op spans live outside the ring (one slot per operation,
    extended as child spans close) so a long run's tail of hand-off
    records never evicts the op table forensics anchors on.
    """

    __slots__ = (
        "dropped_ops",
        "emitted_spans",
        "force_closed",
        "finalized",
        "end_time",
        "violations",
        "_ring",
        "_open",
        "_next_token",
        "_ops",
        "_seqmap",
        "_tracks",
        "_track_list",
    )

    def __init__(self):
        #: Ops refused a trace id because the op table was full.
        self.dropped_ops = 0
        #: Closed spans emitted, kept or since evicted by the ring.
        self.emitted_spans = 0
        #: Spans still open at finalize (closed with the end time).
        self.force_closed = 0
        self.finalized = False
        self.end_time = 0
        #: Rare, so not ints-only: one dict per checker violation
        #: (checker/node/cycle/addr/seq/tid/detail) — the forensics
        #: anchor of choice when a checker actually fired.
        self.violations: List[Dict] = []
        self._ring: Deque[Span] = deque(maxlen=CAPACITY)
        self._open: Dict[int, Tuple[int, int, int, int, int, int, int]] = {}
        self._next_token = 1
        #: tid -> [track, t0, t1, op_class, addr, seq, node]
        self._ops: Dict[int, List[int]] = {}
        #: (node << 32 | seq) -> trace id of the op.
        self._seqmap: Dict[int, int] = {}
        self._tracks: Dict[str, int] = {}
        self._track_list: List[str] = []

    # -- tracks -------------------------------------------------------------

    def track(self, name: str) -> int:
        """Intern ``name``; returns its stable track id."""
        tracks = self._tracks
        tid = tracks.get(name)
        if tid is None:
            tid = len(self._track_list)
            tracks[name] = tid
            self._track_list.append(name)
        return tid

    def track_names(self) -> List[str]:
        return list(self._track_list)

    # -- op roots -----------------------------------------------------------

    def new_op(
        self, track: int, node: int, op_class: int, addr: int, seq: int, t: int
    ) -> int:
        """Assign a trace id at issue; 0 once the op table is full."""
        ops = self._ops
        if len(ops) >= CAPACITY:
            self.dropped_ops += 1
            return 0
        tid = len(ops) + 1
        ops[tid] = [track, t, t, op_class, addr, seq, node]
        self._seqmap[node << 32 | seq] = tid
        return tid

    def tid_for(self, node: int, seq: int) -> int:
        """The trace id of (node, seq), or 0 when it has none."""
        return self._seqmap.get(node << 32 | seq, 0)

    def _extend(self, tid: int, t: int) -> None:
        op = self._ops.get(tid)
        if op is not None and t > op[2]:
            op[2] = t

    def op_touch(self, tid: int, t: int) -> None:
        """Extend an op's root span to its latest hand-off time."""
        if tid > 0:
            self._extend(tid, t)

    # -- spans --------------------------------------------------------------

    def _emit(self, span: Span) -> None:
        self._ring.append(span)
        self.emitted_spans += 1

    def open(
        self,
        tid: int,
        track: int,
        kind: int,
        t0: int,
        a: int = 0,
        b: int = 0,
        c: int = 0,
    ) -> int:
        """Open a child span; returns the token ``close`` pairs with."""
        token = self._next_token
        self._next_token = token + 1
        self._open[token] = (tid, track, kind, t0, a, b, c)
        return token

    def close(self, token: int, t1: int) -> None:
        rec = self._open.pop(token, None)
        if rec is None:
            return
        tid, track, kind, t0, a, b, c = rec
        self._emit((tid, track, kind, t0, t1, a, b, c))
        if tid > 0:
            self._extend(tid, t1)

    def span(
        self,
        tid: int,
        track: int,
        kind: int,
        t0: int,
        t1: int,
        a: int = 0,
        b: int = 0,
        c: int = 0,
    ) -> None:
        """Record a span whose end is already known at open time
        (express-plane flights: delivery time is computed at send)."""
        self._emit((tid, track, kind, t0, t1, a, b, c))
        if tid > 0:
            self._extend(tid, t1)

    def instant(
        self,
        tid: int,
        track: int,
        kind: int,
        t: int,
        a: int = 0,
        b: int = 0,
        c: int = 0,
    ) -> None:
        self._emit((tid, track, kind, t, t, a, b, c))
        if tid > 0:
            self._extend(tid, t)

    def violation(
        self,
        checker: str,
        node: int,
        cycle: int,
        addr: int = 0,
        seq: int = -1,
        detail: str = "",
    ) -> None:
        """Record a checker violation (instant + forensics anchor)."""
        tid = self._seqmap.get(node << 32 | seq, 0) if seq >= 0 else 0
        track = self.track(f"checker.{checker.lower()}")
        self.instant(
            tid, track, K_VIOL, cycle, addr, node, CHECKER_CODES.get(checker, 0)
        )
        self.violations.append(
            {
                "checker": checker,
                "node": node,
                "cycle": cycle,
                "addr": addr,
                "seq": seq,
                "tid": tid,
                "detail": detail,
            }
        )

    # -- finalize / export --------------------------------------------------

    def finalize(self, end_time: int) -> None:
        """Force-close dangling spans at the end of the run."""
        if self.finalized:
            return
        self.finalized = True
        self.end_time = end_time
        for token in sorted(self._open):
            self.force_closed += 1
            self.close(token, end_time)
        # Op roots end at their last touch, not at run end: no sweep.

    def open_count(self) -> int:
        return len(self._open)

    def events(self) -> List[Span]:
        """Ring records oldest-first: (tid, track, kind, t0, t1, a, b, c)."""
        return list(self._ring)

    def op_spans(self) -> Dict[int, Tuple[int, int, int, int, int, int, int]]:
        """tid -> (track, t0, t1, op_class, addr, seq, node)."""
        return {tid: tuple(op) for tid, op in self._ops.items()}

    def records(self) -> List[Span]:
        """Op roots + ring events as one uniform record list.

        Op roots are emitted as :data:`K_OP` records in tid order; ring
        events follow in close order.
        """
        out = [
            (tid, op[0], K_OP, op[1], op[2], op[3], op[4], op[5])
            for tid, op in sorted(self._ops.items())
        ]
        out.extend(self._ring)
        return out

    def stats(self) -> Dict[str, int]:
        """Occupancy and loss accounting (observable interface)."""
        kept = len(self._ring)
        return {
            "capacity": CAPACITY,
            "traced_ops": len(self._ops),
            "dropped_ops": self.dropped_ops,
            "spans_kept": kept,
            "dropped_spans": self.emitted_spans - kept,
            "open_spans": len(self._open),
            "force_closed": self.force_closed,
            "tracks": len(self._track_list),
            "violations": len(self.violations),
        }
