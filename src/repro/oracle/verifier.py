"""Polynomial-time offline admissibility verifier.

Decides whether a captured trace is admissible under a consistency
model without enumerating interleavings, following the constraint-graph
formulation of Roy et al.'s TSO verifier generalised to the paper's
ordering tables.  Nodes are the trace's memory accesses; the verifier
maintains the transitive closure of a "performs before" partial order
(global memory order; the SPARC models are store-atomic) with per-node
bitsets, and grows it to a fixpoint from:

* **ppo** — preserved program order from the active ordering table,
  with fences and SetModel drains (:mod:`repro.oracle.ppo`);
* **per-location order** — same-thread same-word write->write and
  read->write pairs perform in program order (cache coherence);
* **rf** — a read's writer, inferred from values: an external writer
  performs before the read; a local write is forwarded, so it earns no
  such edge, but any local same-word write preceding an externally
  satisfied read must perform before that external writer;
* **fr** — a read performs before every same-word write that follows
  its writer (reads of the initial value precede every write);
* **ws** — competing writes already known to precede the read must
  precede its writer; same-thread reads of one word observe writers in
  coherence order (CoRR).

A contradiction (edge cycle, or a read value no writer can explain)
proves the trace inadmissible.  Reads whose value two writers could
supply are resolved by candidate pruning; if ambiguity survives the
fixpoint, a bounded branching search tries the assignments and the
verdict is *undecided* only when that budget is exhausted.  Atomics are
single nodes carrying both their read and write halves (the codec keeps
them paired), so RMW atomicity violations surface as cycles through the
fr rule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.common.types import word_of
from repro.consistency.models import ConsistencyModel
from repro.verify.trace import Trace, load_jsonl

from .ppo import thread_order_bits

#: Pseudo writer id for "the word's initial value".
INIT = -1

_NEW, _OLD, _CYCLE = 0, 1, 2


@dataclass(frozen=True)
class OracleViolation:
    """One inadmissibility proof step."""

    rule: str  # "cycle" | "no-writer" | "coherence-read"
    detail: str


@dataclass
class OracleVerdict:
    """Outcome of one offline verification."""

    admissible: bool
    decided: bool  # False: ambiguity budget exhausted, no proof either way
    violations: List[OracleViolation] = field(default_factory=list)
    stats: Dict[str, int] = field(default_factory=dict)

    def __bool__(self) -> bool:  # truthy == admissible
        return self.admissible


class _Graph:
    """Digraph under incremental transitive closure (bitset rows)."""

    __slots__ = ("n", "succ", "pred")

    def __init__(self, n: int):
        self.n = n
        self.succ = [0] * n
        self.pred = [0] * n

    def clone(self) -> "_Graph":
        g = _Graph.__new__(_Graph)
        g.n = self.n
        g.succ = list(self.succ)
        g.pred = list(self.pred)
        return g

    def has(self, u: int, v: int) -> bool:
        return (self.succ[u] >> v) & 1 == 1

    def add(self, u: int, v: int) -> int:
        """Add u -> v; returns _NEW, _OLD, or _CYCLE (v already reaches u)."""
        succ = self.succ
        if u == v or (self.succ[v] >> u) & 1:
            return _CYCLE
        if (succ[u] >> v) & 1:
            return _OLD
        pred = self.pred
        down = succ[v] | (1 << v)
        up = pred[u] | (1 << u)
        rem = up
        while rem:
            low = rem & -rem
            succ[low.bit_length() - 1] |= down
            rem ^= low
        rem = down
        while rem:
            low = rem & -rem
            pred[low.bit_length() - 1] |= up
            rem ^= low
        return _NEW


class _Node:
    """One access event in the constraint graph."""

    __slots__ = (
        "gid",
        "thread",
        "word",
        "kind",
        "value",
        "rval",
        "is_read",
        "is_write",
        "prior_local",
        "label",
    )

    def __init__(self, gid, thread, word, kind, value, rval, label):
        self.gid = gid
        self.thread = thread
        self.word = word
        self.kind = kind
        self.value = value  # written value (stores/atomics)
        self.rval = rval  # observed value (loads/atomics)
        self.is_read = kind != "store"
        self.is_write = kind != "load"
        self.prior_local: Optional[int] = None  # latest local same-word write
        self.label = label


class _State:
    """One branch of the search: closure graph + rf assignment."""

    __slots__ = ("graph", "rf", "candidates")

    def __init__(self, graph: _Graph, rf: list, candidates: dict):
        self.graph = graph
        self.rf = rf
        self.candidates = candidates

    def clone(self) -> "_State":
        return _State(
            self.graph.clone(),
            list(self.rf),
            {r: set(c) for r, c in self.candidates.items()},
        )


class OfflineVerifier:
    """Verify one :class:`~repro.verify.trace.Trace` against a model."""

    def __init__(
        self,
        trace: Trace,
        model: ConsistencyModel,
        initial: int = 0,
        branch_budget: int = 256,
    ):
        self.model = model
        self.initial = initial
        self.branch_budget = branch_budget
        self._branches = 0
        self._violation: Optional[OracleViolation] = None
        self._build(trace)

    # -- construction -------------------------------------------------------
    def _build(self, trace: Trace) -> None:
        streams = trace.per_core()
        self.nodes: List[_Node] = []
        self.reads: List[int] = []
        self.writers_by_word: Dict[int, List[int]] = {}
        self.writer_bits: Dict[int, int] = {}
        seeds: List[Tuple[int, int]] = []  # ppo/per-location edges
        for thread in sorted(streams):
            stream = streams[thread]
            order = thread_order_bits(stream, self.model)
            access_pos: Dict[int, int] = {}  # stream pos -> gid
            last_write: Dict[int, int] = {}  # word -> gid
            last_read: Dict[int, int] = {}  # word -> gid
            for pos, event in enumerate(stream):
                if not event.is_access():
                    continue
                word = word_of(event.addr)
                gid = len(self.nodes)
                node = _Node(
                    gid,
                    thread,
                    word,
                    event.kind,
                    event.value,
                    event.value if event.kind == "load" else event.old_value,
                    f"T{thread}#{event.index}:{event.kind}@0x{event.addr:x}",
                )
                access_pos[pos] = gid
                node.prior_local = last_write.get(word)
                if node.is_read:
                    self.reads.append(gid)
                if node.is_write:
                    # Per-location program order: same-word writes drain
                    # in order; a read performs before its word's next
                    # local write (it must not observe it).
                    prev = last_write.get(word)
                    if prev is not None:
                        seeds.append((prev, gid))
                    prev_read = last_read.get(word)
                    if prev_read is not None:
                        seeds.append((prev_read, gid))
                    last_write[word] = gid
                    self.writers_by_word.setdefault(word, []).append(gid)
                if node.is_read:
                    last_read[word] = gid
                self.nodes.append(node)
            # Project the stream-position ppo closure onto access nodes.
            for pos, gid in access_pos.items():
                bits = order[pos]
                while bits:
                    low = bits & -bits
                    jpos = low.bit_length() - 1
                    bits ^= low
                    target = access_pos.get(jpos)
                    if target is not None:
                        seeds.append((gid, target))
        n = len(self.nodes)
        self.graph_seed = _Graph(n)
        for word, writers in self.writers_by_word.items():
            mask = 0
            for w in writers:
                mask |= 1 << w
            self.writer_bits[word] = mask
        for u, v in seeds:
            # Same-thread seeds always point forward in program order,
            # so they can never introduce a cycle.
            self.graph_seed.add(u, v)

    def _initial_state(self) -> Optional[_State]:
        rf: List[Optional[int]] = [None] * len(self.nodes)
        candidates: Dict[int, set] = {}
        by_value: Dict[Tuple[int, int], List[int]] = {}
        for word, writers in self.writers_by_word.items():
            for w in writers:
                by_value.setdefault((word, self.nodes[w].value), []).append(w)
        for r in self.reads:
            node = self.nodes[r]
            cands = set()
            for w in by_value.get((node.word, node.rval), ()):
                if w == r:
                    continue  # an atomic never observes its own write
                wn = self.nodes[w]
                if wn.thread == node.thread:
                    # Forwarding reads the *latest* local same-word
                    # write; earlier ones are shadowed, later ones are
                    # not yet issued.
                    if w != node.prior_local:
                        continue
                cands.add(w)
            if node.rval == self.initial and node.prior_local is None:
                cands.add(INIT)
            if not cands:
                self._violation = OracleViolation(
                    "no-writer",
                    f"{node.label} observed 0x{node.rval:x}, which no "
                    f"store to word 0x{node.word:x} can supply",
                )
                return None
            candidates[r] = cands
        return _State(self.graph_seed.clone(), rf, candidates)

    # -- inference ----------------------------------------------------------
    def _edge(self, state: _State, u: int, v: int, rule: str) -> bool:
        """Add a derived edge; False (and a violation) on cycle."""
        result = state.graph.add(u, v)
        if result == _CYCLE:
            self._violation = OracleViolation(
                "cycle",
                f"{rule}: {self.nodes[u].label} -> {self.nodes[v].label} "
                f"closes a performs-before cycle under {self.model.name}",
            )
            return False
        if result == _NEW:
            self._progress = True
        return True

    def _bind(self, state: _State, r: int, w: int) -> bool:
        """Fix rf(w, r) and fire the immediate edges."""
        state.rf[r] = w
        state.candidates.pop(r, None)
        self._progress = True
        node = self.nodes[r]
        if w == INIT:
            # fr from the initial value: the read performs before every
            # write to the word.
            for s in self.writers_by_word.get(node.word, ()):
                if s != r and not self._edge(state, r, s, "fr-init"):
                    return False
            return True
        wn = self.nodes[w]
        if wn.thread != node.thread:
            if not self._edge(state, w, r, "rf-external"):
                return False
            if node.prior_local is not None and not self._edge(
                state, node.prior_local, w, "local-before-external-rf"
            ):
                return False
        return True

    def _apply_bound(self, state: _State, r: int) -> bool:
        """fr / ws inference for an already-bound read."""
        w = state.rf[r]
        if w == INIT:
            return True
        node = self.nodes[r]
        graph = state.graph
        w_external = self.nodes[w].thread != node.thread
        w_before_r = w_external or graph.has(w, r)
        succ_w = graph.succ[w]
        pred_r = graph.pred[r]
        others = self.writer_bits.get(node.word, 0) & ~(1 << w) & ~(1 << r)
        rem = others
        while rem:
            low = rem & -rem
            s = low.bit_length() - 1
            rem ^= low
            if (succ_w >> s) & 1:
                # fr: the read precedes writes that overwrite its writer.
                if not self._edge(state, r, s, "fr"):
                    return False
            if w_before_r and (pred_r >> s) & 1:
                # ws: a competing write already before the read must
                # precede the observed writer (else it would be the
                # value seen).
                if not self._edge(state, s, w, "ws-competitor"):
                    return False
        return True

    def _prune(self, state: _State, r: int) -> bool:
        """Drop impossible candidates; bind when one remains."""
        node = self.nodes[r]
        graph = state.graph
        cands = state.candidates[r]
        dead = []
        for w in cands:
            if w == INIT:
                # Impossible once any write is known to precede the read.
                if graph.pred[r] & self.writer_bits.get(node.word, 0):
                    dead.append(w)
                continue
            wn = self.nodes[w]
            external = wn.thread != node.thread
            if external and graph.has(r, w):
                dead.append(w)
                continue
            if (
                external
                and node.prior_local is not None
                and graph.has(w, node.prior_local)
            ):
                # The local prior write would shadow this older value.
                dead.append(w)
                continue
            # Hidden writer: some same-word write is between w and r.
            hidden = (
                graph.succ[w]
                & graph.pred[r]
                & self.writer_bits.get(node.word, 0)
                & ~(1 << r)
            )
            if hidden:
                dead.append(w)
        for w in dead:
            cands.discard(w)
            self._progress = True
        if not cands:
            self._violation = OracleViolation(
                "no-writer",
                f"{node.label} observed 0x{node.rval:x}, but every "
                f"candidate writer is contradicted by the derived order",
            )
            return False
        if len(cands) == 1:
            return self._bind(state, r, next(iter(cands)))
        return True

    def _corr(self, state: _State) -> bool:
        """Same-thread reads of one word observe writers in coherence
        order (no value oscillation)."""
        last: Dict[Tuple[int, int], int] = {}
        for r in self.reads:
            if state.rf[r] is None:
                continue
            node = self.nodes[r]
            key = (node.thread, node.word)
            prev = last.get(key)
            last[key] = r
            if prev is None:
                continue
            w1, w2 = state.rf[prev], state.rf[r]
            if w1 == w2 or w1 == INIT:
                continue
            if w2 == INIT:
                self._violation = OracleViolation(
                    "coherence-read",
                    f"{node.label} observed the initial value after "
                    f"{self.nodes[prev].label} observed a store",
                )
                return False
            if not self._edge(state, w1, w2, "coherence-read"):
                return False
        return True

    def _propagate(self, state: _State) -> bool:
        """Run all rules to a fixpoint; False on contradiction."""
        self._progress = True
        while self._progress:
            self._progress = False
            for r in self.reads:
                if state.rf[r] is None:
                    if not self._prune(state, r):
                        return False
                if state.rf[r] is not None and not self._apply_bound(
                    state, r
                ):
                    return False
            if not self._corr(state):
                return False
        return True

    # -- search -------------------------------------------------------------
    def _solve(self, state: _State) -> Optional[bool]:
        """True admissible, False contradiction, None budget exhausted."""
        if not self._propagate(state):
            return False
        unbound = [r for r in self.reads if state.rf[r] is None]
        if not unbound:
            return True
        r = min(unbound, key=lambda x: (len(state.candidates[x]), x))
        saw_budget_end = False
        for w in sorted(state.candidates[r]):
            self._branches += 1
            if self._branches > self.branch_budget:
                return None
            branch = state.clone()
            violation = self._violation
            if not self._bind(branch, r, w):
                self._violation = violation  # branch-local contradiction
                continue
            result = self._solve(branch)
            if result:
                return True
            if result is None:
                saw_budget_end = True
            self._violation = violation
        return None if saw_budget_end else False

    def verdict(self) -> OracleVerdict:
        stats = {
            "events": len(self.nodes),
            "reads": len(self.reads),
            "writes": sum(1 for n in self.nodes if n.is_write),
        }
        state = self._initial_state()
        if state is None:
            stats["branches"] = 0
            return OracleVerdict(False, True, [self._violation], stats)
        self._branches = 0
        self._violation = None
        result = self._solve(state)
        stats["branches"] = self._branches
        if result is None:
            return OracleVerdict(True, False, [], stats)
        if result:
            return OracleVerdict(True, True, [], stats)
        violations = [self._violation] if self._violation else []
        return OracleVerdict(False, True, violations, stats)


def check_trace(
    trace: Trace,
    model: ConsistencyModel,
    initial: int = 0,
    branch_budget: int = 256,
) -> OracleVerdict:
    """Verify ``trace`` against ``model``; see :class:`OfflineVerifier`."""
    return OfflineVerifier(trace, model, initial, branch_budget).verdict()


def verify_file(
    path: str, model: ConsistencyModel, initial: int = 0
) -> OracleVerdict:
    """Verify a JSONL trace file written by the shared codecs."""
    return check_trace(load_jsonl(path), model, initial=initial)
