"""Systematic litmus-test generation for differential fuzzing.

A litmus test is a tiny multi-threaded program skeleton — a few stores,
loads, fences and RMWs over two or three shared words — whose final
load values discriminate between consistency models.  This module
enumerates such skeletons exhaustively within a small shape budget,
canonicalises away thread/address symmetry so each behaviour is tested
once, and lowers specs to runnable per-core generator programs for
:func:`repro.system.builder.build_system`.

Ops are plain tuples so specs are hashable, comparable and
JSON-round-trippable (the fuzz corpus commits them as files):

* ``("st", a, v)``  — store ``v`` to address slot ``a``
* ``("ld", a)``     — load from slot ``a``
* ``("mb", mask)``  — ``Membar`` with the given instruction mask
* ``("sb",)``       — ``Stbar``
* ``("rmw", a, v)`` — atomic swap of ``v`` into slot ``a``

Every generated store/RMW writes a value unique within its spec
(``thread*8 + position + 1``), which keeps reads-from inference in the
offline oracle exact — no two writers of one word ever write the same
value, so a captured trace never needs the oracle's branching fallback.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.common.types import MembarMask
from repro.processor.operations import (
    Atomic,
    Compute,
    Load,
    Membar,
    Stbar,
    Store,
)

#: Address slots map to distinct cache blocks in the shared region used
#: by the hand-written litmus tests (tests/integration/test_litmus.py).
LITMUS_BASE = 0x2_0000
BLOCK_STRIDE = 0x40

Op = Tuple
Thread = Tuple[Op, ...]


def slot_addr(slot: int) -> int:
    """Physical address of litmus address slot ``slot``."""
    return LITMUS_BASE + slot * BLOCK_STRIDE


@dataclass(frozen=True)
class LitmusSpec:
    """One canonical litmus skeleton."""

    name: str
    threads: Tuple[Thread, ...]

    # -- structure ----------------------------------------------------------
    def slots(self) -> List[int]:
        """Address slots the spec touches, ascending."""
        used = set()
        for thread in self.threads:
            for op in thread:
                if op[0] in ("st", "ld", "rmw"):
                    used.add(op[1])
        return sorted(used)

    def is_interesting(self) -> bool:
        """Worth running: some word is shared, something is written,
        and something is observed."""
        writers: Dict[int, set] = {}
        readers: Dict[int, set] = {}
        touched: Dict[int, set] = {}
        loads = 0
        for tid, thread in enumerate(self.threads):
            for op in thread:
                if op[0] in ("st", "rmw"):
                    writers.setdefault(op[1], set()).add(tid)
                if op[0] in ("ld", "rmw"):
                    readers.setdefault(op[1], set()).add(tid)
                    loads += 1
                if op[0] in ("st", "ld", "rmw"):
                    touched.setdefault(op[1], set()).add(tid)
        if not writers or not loads:
            return False
        shared = any(len(tids) > 1 for tids in touched.values())
        observed = any(slot in readers for slot in writers)
        return shared and observed

    # -- codec --------------------------------------------------------------
    def encode(self) -> str:
        """Compact one-line form, e.g. ``st0.1,ld1;st1.9,ld0``."""
        parts = []
        for thread in self.threads:
            ops = []
            for op in thread:
                if op[0] == "st" or op[0] == "rmw":
                    ops.append(f"{op[0]}{op[1]}.{op[2]}")
                elif op[0] == "ld":
                    ops.append(f"ld{op[1]}")
                elif op[0] == "mb":
                    ops.append(f"mb{op[1]:x}")
                else:
                    ops.append("sb")
            parts.append(",".join(ops))
        return ";".join(parts)

    @classmethod
    def decode(cls, text: str, name: Optional[str] = None) -> "LitmusSpec":
        """Inverse of :meth:`encode`."""
        threads = []
        for part in text.strip().split(";"):
            ops: List[Op] = []
            for token in part.split(","):
                token = token.strip()
                if token.startswith("st") or token.startswith("rmw"):
                    kind = "st" if token.startswith("st") else "rmw"
                    slot, value = token[len(kind) :].split(".")
                    ops.append((kind, int(slot), int(value)))
                elif token.startswith("ld"):
                    ops.append(("ld", int(token[2:])))
                elif token.startswith("mb"):
                    ops.append(("mb", int(token[2:], 16)))
                elif token == "sb":
                    ops.append(("sb",))
                else:
                    raise ValueError(f"bad litmus op token: {token!r}")
            threads.append(tuple(ops))
        spec = cls(name or "", tuple(threads))
        return spec if name else cls(spec.encode(), spec.threads)

    def to_json(self) -> Dict:
        return {"name": self.name, "litmus": self.encode()}

    @classmethod
    def from_json(cls, data: Dict) -> "LitmusSpec":
        return cls.decode(data["litmus"], name=data.get("name") or None)

    # -- lowering -----------------------------------------------------------
    def programs(
        self,
        out: Optional[Dict[Tuple[int, int], int]] = None,
        delays: Optional[Sequence[int]] = None,
        warm_delay: int = 300,
    ) -> List:
        """Per-core generators (length = thread count) for build_system.

        Each thread warms every slot it touches into the caches (the
        idiom the hand-written litmus tests use: racing accesses then
        hit locally, opening the reordering windows), optionally idles
        ``delays[tid]`` cycles to skew the race, then runs its ops.
        Load results land in ``out[(thread, op_index)]``.
        """

        def make(tid: int, thread: Thread):
            def program():
                mine = [
                    op[1] for op in thread if op[0] in ("st", "ld", "rmw")
                ]
                # Warm own slots first (ownership), then the rest.
                for slot in dict.fromkeys(mine):
                    yield Load(slot_addr(slot))
                yield Compute(warm_delay)
                if delays and delays[tid]:
                    yield Compute(delays[tid])
                for pos, op in enumerate(thread):
                    if op[0] == "st":
                        yield Store(slot_addr(op[1]), op[2])
                    elif op[0] == "ld":
                        value = yield Load(slot_addr(op[1]))
                        if out is not None:
                            out[(tid, pos)] = value
                    elif op[0] == "mb":
                        yield Membar(MembarMask(op[1]))
                    elif op[0] == "sb":
                        yield Stbar()
                    else:
                        value = yield Atomic(slot_addr(op[1]), op[2])
                        if out is not None:
                            out[(tid, pos)] = value

            return program()

        return [make(tid, thread) for tid, thread in enumerate(self.threads)]


# -- canonicalisation -------------------------------------------------------


def _relabel(thread: Thread, addr_map: Dict[int, int]) -> Thread:
    out = []
    for op in thread:
        if op[0] in ("st", "ld", "rmw"):
            out.append((op[0], addr_map[op[1]], *op[2:]))
        else:
            out.append(op)
    return tuple(out)


def canonical_threads(threads: Sequence[Thread]) -> Tuple[Thread, ...]:
    """Least representative under thread order and address relabeling.

    Store values are part of the shape deliberately: generated values
    are positional (``thread*8 + pos + 1``), so after permuting threads
    the values are re-derived positionally, making two symmetric
    variants encode identically.
    """
    slots = sorted(
        {op[1] for t in threads for op in t if op[0] in ("st", "ld", "rmw")}
    )
    best = None
    for order in itertools.permutations(range(len(threads))):
        permuted = [threads[i] for i in order]
        renumbered = [
            tuple(
                (op[0], op[1], tid * 8 + pos + 1)
                if op[0] in ("st", "rmw")
                else op
                for pos, op in enumerate(thread)
            )
            for tid, thread in enumerate(permuted)
        ]
        for mapping in itertools.permutations(range(len(slots))):
            addr_map = dict(zip(slots, mapping))
            candidate = tuple(_relabel(t, addr_map) for t in renumbered)
            if best is None or candidate < best:
                best = candidate
    return best


# -- enumeration ------------------------------------------------------------

#: Fence alphabet for systematic enumeration: the full barrier and the
#: single-ordering barriers the models disagree about.
FENCES = (
    ("mb", int(MembarMask.ALL)),
    ("mb", int(MembarMask.STORELOAD)),
    ("sb",),
)


def _op_alphabet(slots: int, fences: bool, rmw: bool = False) -> List[Op]:
    ops: List[Op] = []
    for slot in range(slots):
        ops.append(("st", slot, 0))  # value assigned positionally later
        ops.append(("ld", slot))
        if rmw:
            ops.append(("rmw", slot, 0))
    if fences:
        ops.extend(FENCES)
    return ops


def enumerate_specs(
    threads: int = 2,
    ops_per_thread: int = 2,
    slots: int = 2,
    fences: bool = True,
) -> Iterator[LitmusSpec]:
    """All canonical, interesting skeletons of the given shape.

    The raw space is ``|alphabet| ** (threads * ops_per_thread)``;
    canonicalisation and the interestingness filter cut it to the
    behaviourally distinct racy cores (e.g. 2x2 over 2 slots with
    fences: 1296 raw shapes -> a few hundred canonical specs, SB, MP
    and LB among them).
    """
    alphabet = _op_alphabet(slots, fences)
    seen = set()
    for shape in itertools.product(
        itertools.product(alphabet, repeat=ops_per_thread), repeat=threads
    ):
        canon = canonical_threads(shape)
        if canon in seen:
            continue
        seen.add(canon)
        spec = LitmusSpec("", canon)
        if not spec.is_interesting():
            continue
        yield LitmusSpec(spec.encode(), canon)


def generate(
    count: int,
    seed: int = 0,
    max_threads: int = 4,
) -> List[LitmusSpec]:
    """Deterministic corpus of ``count`` distinct canonical specs.

    Fills from the exhaustive two-thread families first (every classic
    two-thread idiom appears there), then samples wider/deeper shapes
    (3-4 threads, 3 ops, 3 slots) with a seeded generator until the
    quota is met.
    """
    corpus: List[LitmusSpec] = []
    seen = set()

    def take(spec: LitmusSpec, limit: int) -> bool:
        if spec.threads in seen:
            return False
        seen.add(spec.threads)
        corpus.append(spec)
        return len(corpus) >= limit

    # A slice of the quota goes to sampled wide/deep shapes so the
    # corpus always exercises 3-4 thread interactions (IRIW-like).
    wide_quota = min(count, max(count // 4, min(count, 8)))
    rng = random.Random(seed)
    shapes = [(3, 2, 2), (3, 3, 3), (2, 3, 3)]
    if max_threads >= 4:
        shapes.append((4, 2, 2))
    while len(corpus) < wide_quota:
        n_threads, n_ops, n_slots = rng.choice(shapes)
        alphabet = _op_alphabet(n_slots, fences=True, rmw=True)
        shape = tuple(
            tuple(rng.choice(alphabet) for _ in range(n_ops))
            for _ in range(n_threads)
        )
        canon = canonical_threads(shape)
        spec = LitmusSpec("", canon)
        if spec.is_interesting():
            take(LitmusSpec(spec.encode(), canon), wide_quota)

    for spec in enumerate_specs(threads=2, ops_per_thread=2, slots=2):
        if take(spec, count):
            return corpus
    for spec in enumerate_specs(
        threads=2, ops_per_thread=3, slots=2, fences=True
    ):
        if take(spec, count):
            return corpus
    while len(corpus) < count:
        n_threads, n_ops, n_slots = rng.choice(shapes)
        alphabet = _op_alphabet(n_slots, fences=True, rmw=True)
        shape = tuple(
            tuple(rng.choice(alphabet) for _ in range(n_ops))
            for _ in range(n_threads)
        )
        canon = canonical_threads(shape)
        spec = LitmusSpec("", canon)
        if spec.is_interesting():
            take(LitmusSpec(spec.encode(), canon), count)
    return corpus


# -- curated classics -------------------------------------------------------

_MB_ALL = int(MembarMask.ALL)
_MB_SL = int(MembarMask.STORELOAD)
_MB_LL = int(MembarMask.LOADLOAD)


def _classic(name: str, text: str) -> LitmusSpec:
    return LitmusSpec.decode(text, name=name)


#: Named skeletons every fuzz run exercises regardless of sampling.
CLASSICS: Tuple[LitmusSpec, ...] = (
    _classic("SB", "st0.1,ld1;st1.9,ld0"),
    _classic("SB+mbSL", f"st0.1,mb{_MB_SL:x},ld1;st1.9,mb{_MB_SL:x},ld0"),
    _classic("MP", "st0.1,st1.2;ld1,ld0"),
    _classic("MP+sb+mbLL", f"st0.1,sb,st1.2;ld1,mb{_MB_LL:x},ld0"),
    _classic("LB", "ld0,st1.2;ld1,st0.10"),
    _classic("CoRR", "st0.1;ld0,ld0"),
    _classic("2+2W", "st0.1,st1.2;st1.9,st0.10,ld0,ld1"),
    _classic("RMW-pair", "rmw0.1;rmw0.9,ld0"),
    _classic(
        "IRIW+mb",
        f"st0.1;st1.9;ld0,mb{_MB_ALL:x},ld1;ld1,mb{_MB_ALL:x},ld0",
    ),
    _classic("S+fence", f"st0.1,mb{_MB_ALL:x},st1.2;ld1,ld0"),
)


def classics() -> List[LitmusSpec]:
    """Fresh copies of the curated named specs."""
    return list(CLASSICS)

