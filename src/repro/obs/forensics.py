"""Violation forensics: automated post-mortems from the flight recorder.

Given a :class:`~repro.obs.spans.SpanRecorder` from a recorded run and
(optionally) a violation detail string from a committed reproducer,
this module walks the recorder *backwards* from the violating
operation and extracts the minimal causal slice: the transaction's own
hand-off timeline (write buffer, MSHR, link reservations, message
flights, ownership transitions, checker verdicts), every other
transaction that touched the same block inside the forensic window,
and the infrastructure context (coherence epochs, MET informs,
SafetyNet checkpoints) the checkers judged it against.

Anchors resolve in priority order:

1. a live checker violation captured by the recorder
   (``recorder.violations`` — carries checker/node/cycle/addr/seq/tid);
2. a parsed detail string — both the online format
   (``[cycle 496] AR violation at node 0: ... seq 3 ...``) and the
   offline oracle's edge format (``T0#15:load@0x20080 -> ...``) are
   understood, so ``repro.cli explain`` works on reproducers whose
   online run is clean (``missed_violation`` cases).

Consumed by ``repro.cli explain`` and the differential-fuzz rig
(:mod:`repro.fuzz` attaches a post-mortem next to every fatal
reproducer it writes).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.types import block_of
from repro.obs.spans import (
    CHECKER_CODES,
    K_AR,
    K_BCAST,
    K_CKPT,
    K_EPOCH,
    K_LINK,
    K_MET,
    K_MSG,
    K_MSHR,
    K_OP,
    K_OWNER,
    K_REPLAY,
    K_UO,
    K_VIOL,
    K_WB,
    KIND_NAMES,
    OP_CLASS_NAMES,
    SpanRecorder,
)

#: Default forensic window: how far back (cycles) from the violation
#: the same-block sweep reaches.
DEFAULT_WINDOW = 50_000

_CHECKER_NAMES = {code: name for name, code in CHECKER_CODES.items()}

# -- detail-string parsing ---------------------------------------------------

_RE_CYCLE = re.compile(r"\[cycle (\d+)\]")
_RE_CHECKER = re.compile(r"\b(AR|UO|CC)\s+violation")
_RE_NODE = re.compile(r"\bnode (\d+)")
_RE_SEQ = re.compile(r"\bseq (\d+)")
_RE_ADDR = re.compile(r"0x[0-9a-fA-F]+")
#: The oracle's performs-before edge endpoints: ``T3#13:store@0x20080``.
_RE_ORACLE_OP = re.compile(r"T(\d+)#(\d+):(\w+)@(0x[0-9a-fA-F]+)")
_RE_OP_CLASS = re.compile(r"\b(load|store|atomic|membar|stbar)\b")
#: Op class name -> its index into :data:`OP_CLASS_NAMES`.
_CLASS_OF = {name: code for code, name in enumerate(OP_CLASS_NAMES)}


@dataclass
class Anchor:
    """The resolved violating operation the post-mortem hangs off."""

    source: str  # "recorder" | "detail"
    checker: str  # AR / UO / CC / ORACLE
    detail: str
    node: int = -1
    cycle: int = -1
    addr: int = 0
    seq: int = -1
    tid: int = 0
    #: Index into :data:`OP_CLASS_NAMES` when the detail names the op.
    op_class: int = -1
    #: Extra (node, seq, kind, addr) hints from an oracle edge detail.
    hints: List[Tuple[int, int, str, int]] = field(default_factory=list)


def parse_detail(detail: str) -> Optional[Anchor]:
    """Extract an anchor from a reproducer/violation detail string."""
    if not detail:
        return None
    oracle_ops = [
        (int(n), int(s), kind, int(a, 16))
        for n, s, kind, a in _RE_ORACLE_OP.findall(detail)
    ]
    if oracle_ops:
        node, seq, kind, addr = oracle_ops[0]
        checker = _RE_CHECKER.search(detail)
        cycle = _RE_CYCLE.search(detail)
        return Anchor(
            source="detail",
            checker=checker.group(1) if checker else "ORACLE",
            detail=detail,
            node=node,
            cycle=int(cycle.group(1)) if cycle else -1,
            seq=seq,
            addr=addr,
            op_class=_CLASS_OF.get(kind, -1),
            hints=oracle_ops[1:],
        )
    checker = _RE_CHECKER.search(detail)
    cycle = _RE_CYCLE.search(detail)
    node = _RE_NODE.search(detail)
    seq = _RE_SEQ.search(detail)
    addrs = _RE_ADDR.findall(detail)
    op_class = _RE_OP_CLASS.search(detail)
    if not (checker or cycle or node):
        return None
    return Anchor(
        source="detail",
        checker=checker.group(1) if checker else "?",
        detail=detail,
        node=int(node.group(1)) if node else -1,
        cycle=int(cycle.group(1)) if cycle else -1,
        addr=int(addrs[0], 16) if addrs else 0,
        seq=int(seq.group(1)) if seq else -1,
        op_class=OP_CLASS_NAMES.index(op_class.group(1)) if op_class else -1,
    )


# -- anchor resolution -------------------------------------------------------


def _find_op(
    recorder: SpanRecorder,
    node: int,
    addr: int,
    seq: int,
    cycle: int,
    op_class: int = -1,
) -> int:
    """Best-effort trace id for a (node, addr, seq, cycle) description.

    Exact ``(node, seq)`` wins (when the op class matches, if the
    detail names one); the oracle's ``T<n>#<i>`` index is the core's
    ``seq``.  Otherwise the same-node op on the same block with the
    nearest sequence number wins, falling back to the last such op
    before the violation cycle.
    """
    ops = recorder.op_spans()
    if seq >= 0 and node >= 0:
        tid = recorder.tid_for(node, seq)
        if tid and (op_class < 0 or ops[tid][3] == op_class):
            return tid
    for want_class in ((op_class, -1) if op_class >= 0 else (-1,)):
        best_tid = 0
        best_score = None
        for tid, (_, t0, _, cls, a, s, n) in ops.items():
            if node >= 0 and n != node:
                continue
            if addr and block_of(a) != block_of(addr):
                continue
            if want_class >= 0 and cls != want_class:
                continue
            if seq >= 0:
                score = abs(s - seq)
            elif cycle >= 0:
                if t0 > cycle:
                    continue
                score = cycle - t0
            else:
                score = -tid  # newest op wins
            if best_score is None or score < best_score:
                best_score, best_tid = score, tid
        if best_tid:
            return best_tid
    return 0


def resolve_anchor(recorder: SpanRecorder, detail: str = "") -> Optional[Anchor]:
    """The violating op: live recorder violation first, detail second."""
    if recorder.violations:
        v = recorder.violations[0]
        anchor = Anchor(
            source="recorder",
            checker=v["checker"],
            detail=v["detail"] or detail,
            node=v["node"],
            cycle=v["cycle"],
            addr=v["addr"],
            seq=v["seq"],
            tid=v["tid"],
        )
    else:
        anchor = parse_detail(detail)
        if anchor is None:
            return None
    if not anchor.tid:
        anchor.tid = _find_op(
            recorder,
            anchor.node,
            anchor.addr,
            anchor.seq,
            anchor.cycle,
            anchor.op_class,
        )
    op = recorder.op_spans().get(anchor.tid)
    if op is not None:
        # Fill holes from the resolved op root (track, t0, t1, class,
        # addr, seq, node).
        if anchor.addr == 0:
            anchor.addr = op[4]
        if anchor.seq < 0:
            anchor.seq = op[5]
        if anchor.node < 0:
            anchor.node = op[6]
        if anchor.cycle < 0:
            anchor.cycle = op[2]
    return anchor


# -- causal slice ------------------------------------------------------------

#: Ring kinds that carry a block/word address in column ``a``.
_ADDR_KINDS = frozenset(
    (
        K_WB,
        K_MSHR,
        K_MSG,
        K_LINK,
        K_BCAST,
        K_OWNER,
        K_UO,
        K_REPLAY,
        K_EPOCH,
        K_MET,
        K_VIOL,
    )
)


@dataclass
class Slice:
    """The minimal causal slice around one violation."""

    anchor: Anchor
    #: The violating transaction's own records, chronological.
    own: List[Tuple[int, int, int, int, int, int, int, int]]
    #: Same-block records from *other* transactions in the window.
    same_block: List[Tuple[int, int, int, int, int, int, int, int]]
    #: Related transactions: tid -> op root (track..node), ordered by
    #: relevance (same block first, then program-order neighbours).
    related: Dict[int, Tuple[int, int, int, int, int, int, int]]
    #: SafetyNet checkpoints live inside the window.
    checkpoints: List[Tuple[int, int, int]]  # (cycle, index, live)
    block: int
    window: Tuple[int, int]


def causal_slice(
    recorder: SpanRecorder,
    anchor: Anchor,
    window: int = DEFAULT_WINDOW,
) -> Slice:
    """Walk the recorder backwards from ``anchor`` and slice it."""
    ops = recorder.op_spans()
    block = block_of(anchor.addr) if anchor.addr else 0
    anchor_root = ops.get(anchor.tid)
    if not block and anchor_root is not None:
        # Barriers carry no address: focus the slice on the nearest
        # program-order neighbour's block (the access the barrier was
        # ordering when the checker fired), younger side first.
        best = None
        for tid, (_t, _t0, _t1, _cls, a, s, _n) in ops.items():
            if tid == anchor.tid or not a or ops[tid][6] != anchor_root[6]:
                continue
            rank = (abs(s - anchor_root[5]), 0 if s > anchor_root[5] else 1)
            if best is None or rank < best[0]:
                best = (rank, a)
        if best is not None:
            block = block_of(best[1])
    hi = anchor.cycle
    if hi < 0:
        hi = recorder.end_time or max((op[2] for op in ops.values()), default=0)
    anchor_op = ops.get(anchor.tid)
    if anchor_op is not None and anchor_op[2] > hi:
        hi = anchor_op[2]
    lo = max(0, (anchor_op[1] if anchor_op is not None else hi) - window)

    own: List[Tuple[int, ...]] = []
    same_block: List[Tuple[int, ...]] = []
    related: Dict[int, Tuple[int, ...]] = {}
    checkpoints: List[Tuple[int, int, int]] = []
    if anchor_op is not None:
        own.append(
            (
                anchor.tid,
                anchor_op[0],
                K_OP,
                anchor_op[1],
                anchor_op[2],
                anchor_op[3],
                anchor_op[4],
                anchor_op[5],
            )
        )
    for rec in recorder.events():
        tid, _, kind, t0, t1, a, b, _ = rec
        if tid and tid == anchor.tid:
            own.append(rec)
            continue
        if kind == K_CKPT and lo <= t0 <= hi:
            checkpoints.append((t0, a, b))
            continue
        if t1 < lo or t0 > hi:
            continue
        if block and kind in _ADDR_KINDS and block_of(a) == block:
            same_block.append(rec)
            if tid and tid not in related and tid in ops:
                related[tid] = ops[tid]
    # Same-block op roots the ring may have evicted (or that produced
    # no ring traffic, e.g. cache hits).
    if block:
        for tid, op in ops.items():
            if tid == anchor.tid or tid in related:
                continue
            if block_of(op[4]) == block and op[1] <= hi and op[2] >= lo:
                related[tid] = op
    # Oracle edge hints name the causally-related endpoints directly,
    # each an op of its own class.
    for node, seq, kind, addr in anchor.hints:
        tid = _find_op(recorder, node, addr, seq, -1, _CLASS_OF.get(kind, -1))
        if tid and tid != anchor.tid and tid in ops:
            related.setdefault(tid, ops[tid])
    # Program-order neighbours on the violating node (the ops a fence
    # violation is *about* when the anchor itself has no address).
    if anchor.node >= 0 and anchor.seq >= 0:
        for seq in range(anchor.seq - 2, anchor.seq + 3):
            if seq == anchor.seq or seq < 0:
                continue
            tid = recorder.tid_for(anchor.node, seq)
            if tid and tid != anchor.tid and tid in ops:
                related.setdefault(tid, ops[tid])
    own.sort(key=lambda r: (r[3], r[4]))
    same_block.sort(key=lambda r: (r[3], r[4]))
    return Slice(
        anchor=anchor,
        own=own,
        same_block=same_block,
        related=related,
        checkpoints=checkpoints,
        block=block,
        window=(lo, hi),
    )


# -- rendering ---------------------------------------------------------------


def _op_name(op_class: int, addr: int, seq: int) -> str:
    name = (
        OP_CLASS_NAMES[op_class]
        if 0 <= op_class < len(OP_CLASS_NAMES)
        else f"op{op_class}"
    )
    if addr:
        return f"{name}@0x{addr:x} seq {seq}"
    return f"{name} seq {seq}"


def _describe(recorder: SpanRecorder, rec: Tuple[int, ...]) -> str:
    tid, track, kind, t0, t1, a, b, c = rec
    names = recorder.track_names()
    where = names[track] if track < len(names) else f"track{track}"
    when = f"[{t0:>7}..{t1:<7}]" if t1 != t0 else f"[{t0:>7}]{' ' * 9}"
    if kind == K_OP:
        what = _op_name(a, b, c)
    elif kind == K_WB:
        what = f"write-buffer residency 0x{a:x} (value 0x{b:x})"
    elif kind == K_MSHR:
        what = f"MSHR miss block 0x{a:x}"
    elif kind == K_MSG:
        what = f"message 0x{a:x} node {b} -> node {c}"
    elif kind == K_LINK:
        what = f"link reservation 0x{a:x} ({b} -> {c})"
    elif kind == K_BCAST:
        what = f"address broadcast 0x{a:x} from node {b} (order #{c})"
    elif kind == K_OWNER:
        owner = f"node {b - 1}" if b else "memory"
        what = f"ownership of block 0x{a:x} -> {owner} (home {c})"
    elif kind == K_CKPT:
        what = f"SafetyNet checkpoint #{a} ({b} live)"
    elif kind == K_AR:
        what = f"AR verdict: {_op_name(a, 0, b)} reorder window closed (node {c})"
    elif kind == K_UO:
        what = f"UO commit: store 0x{a:x} seq {b} verified (node {c})"
    elif kind == K_REPLAY:
        what = f"UO replay load 0x{a:x} seq {b} (node {c})"
    elif kind == K_EPOCH:
        what = f"{'RW' if b else 'RO'} coherence epoch block 0x{a:x} (node {c})"
    elif kind == K_MET:
        what = f"MET epoch record block 0x{a:x} from node {b} (home {c})"
    elif kind == K_VIOL:
        what = f"{_CHECKER_NAMES.get(c, '?')} VIOLATION addr 0x{a:x} node {b}"
    else:
        what = KIND_NAMES[kind] if kind < len(KIND_NAMES) else f"kind{kind}"
    return f"  {when} {where:<18} {what}"


def post_mortem(
    recorder: SpanRecorder,
    detail: str = "",
    window: int = DEFAULT_WINDOW,
    max_lines: int = 40,
) -> str:
    """Human-readable post-mortem for the recorded run's violation.

    Names the violating operation, its block address, the transaction's
    full hand-off timeline, and every causally-related transaction
    (same block inside the window, oracle edge endpoints, program-order
    neighbours), plus epoch/checkpoint context.
    """
    anchor = resolve_anchor(recorder, detail)
    lines: List[str] = ["=== DVMC violation post-mortem ==="]
    if anchor is None:
        lines.append(
            "no violation anchor: the recorded run was clean and no "
            "parseable detail string was supplied."
        )
        stats = recorder.stats()
        lines.append(
            f"(recorded {stats['traced_ops']} ops, "
            f"{stats['spans_kept']} spans on {stats['tracks']} tracks)"
        )
        return "\n".join(lines)
    ops = recorder.op_spans()
    sl = causal_slice(recorder, anchor, window)
    lines.append(f"checker : {anchor.checker} ({anchor.source})")
    if anchor.detail:
        lines.append(f"verdict : {anchor.detail}")
    where = []
    if anchor.cycle >= 0:
        where.append(f"cycle {anchor.cycle}")
    if anchor.node >= 0:
        where.append(f"node {anchor.node}")
    if where:
        lines.append(f"at      : {', '.join(where)}")
    op = ops.get(anchor.tid)
    if op is not None:
        lines.append(
            f"violating op : {_op_name(op[3], op[4], op[5])} on node {op[6]}"
            f" (trace id {anchor.tid}, active cycles {op[1]}..{op[2]})"
        )
    elif anchor.seq >= 0:
        lines.append(
            f"violating op : seq {anchor.seq} on node {anchor.node}"
            " (no recorded op matches)"
        )
    if sl.block:
        note = (
            ""
            if anchor.addr
            else " (nearest ordered access; the barrier itself has none)"
        )
        lines.append(f"block        : 0x{sl.block:x}{note}")
    lines.append("")

    if sl.own:
        lines.append(f"-- transaction timeline (trace id {anchor.tid}) --")
        for rec in sl.own[:max_lines]:
            lines.append(_describe(recorder, rec))
        if len(sl.own) > max_lines:
            lines.append(f"  ... {len(sl.own) - max_lines} more records")
        lines.append("")

    if sl.related:
        lines.append("-- causally-related transactions --")
        for tid, rop in list(sl.related.items())[:12]:
            rel = (
                "same block"
                if sl.block and block_of(rop[4]) == sl.block
                else "program-order neighbour"
                if rop[6] == anchor.node
                else "window overlap"
            )
            remote = "" if rop[6] == anchor.node else " [remote]"
            lines.append(
                f"  * trace id {tid}: {_op_name(rop[3], rop[4], rop[5])} "
                f"on node {rop[6]}{remote}, cycles {rop[1]}..{rop[2]} "
                f"({rel})"
            )
        lines.append("")

    if sl.same_block:
        lines.append(
            f"-- block 0x{sl.block:x} activity, cycles "
            f"{sl.window[0]}..{sl.window[1]} --"
        )
        for rec in sl.same_block[:max_lines]:
            lines.append(_describe(recorder, rec))
        if len(sl.same_block) > max_lines:
            lines.append(
                f"  ... {len(sl.same_block) - max_lines} more records"
            )
        lines.append("")

    if sl.checkpoints:
        first, last = sl.checkpoints[0], sl.checkpoints[-1]
        lines.append(
            f"-- recovery context: {len(sl.checkpoints)} SafetyNet "
            f"checkpoints in window (#{first[1]} @ cycle {first[0]} .. "
            f"#{last[1]} @ cycle {last[0]}) --"
        )
    return "\n".join(lines).rstrip() + "\n"
