"""Offline trace recording and golden-reference checking.

DVMC checks consistency *online* with bounded hardware.  For testing we
also provide an offline reference: wrap a workload program with
:func:`record_program`, run the simulation, and hand the collected
per-core traces to :class:`TraceChecker`, which validates value-level
properties that any coherent, consistent execution must satisfy:

* every load returns a value some store actually wrote to that word
  (or the word's initial value);
* a core's loads respect its own program order (Uniprocessor Ordering:
  a load sees its core's most recent prior store to the word, unless a
  store from another core could have intervened);
* per-word write serialisation: atomics to a word never observe a
  value that was never current for that word.

Full offline consistency verification is NP-hard (paper Section 3);
this checker is deliberately a conservative subset used to
cross-validate the online checkers in tests.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from repro.common.types import word_of
from repro.consistency.models import ConsistencyModel
from repro.processor.operations import (
    Atomic,
    Batch,
    Load,
    Membar,
    SetModel,
    Stbar,
    Store,
)

#: Event kinds that read or write memory (value-carrying accesses).
ACCESS_KINDS = ("load", "store", "atomic")

#: Event kinds that shape ordering but carry no data: SPARC fences and
#: the PSTATE.MM consistency-model switch (which drains the pipeline
#: and write buffer, i.e. acts as a full fence).
ORDERING_KINDS = ("membar", "stbar", "setmodel")

#: Stable integer codes for ``setmodel`` events (``value`` field).
MODEL_CODES: Dict[str, int] = {
    model.name: code for code, model in enumerate(ConsistencyModel)
}
MODEL_FROM_CODE: Dict[int, ConsistencyModel] = {
    code: ConsistencyModel[name] for name, code in MODEL_CODES.items()
}


@dataclass(slots=True)
class TraceEvent:
    """One recorded operation.

    Access events (``load``/``store``/``atomic``) carry an address and
    value; an atomic additionally carries ``old_value`` (its swapped-out
    result), which keeps the RMW read/write halves paired in a single
    event — offline replay must never split them.  Ordering events
    carry their fence metadata instead: a ``membar`` stores its
    instruction mask in ``mask``, a ``stbar`` stores the #SS mask it is
    equivalent to, and a ``setmodel`` stores the target model's
    :data:`MODEL_CODES` entry in ``value``.
    """

    core: int
    index: int  # the core's seq for the op (see record_program)
    kind: str  # see ACCESS_KINDS / ORDERING_KINDS
    addr: int
    value: int  # load result / stored value / atomic's new value
    old_value: Optional[int] = None  # atomic's returned (swapped-out) value
    mask: int = 0  # membar/stbar instruction mask bits

    def is_access(self) -> bool:
        return self.kind in ACCESS_KINDS


# -- JSONL codec -----------------------------------------------------------
# Shared by the offline oracle and ``repro.cli run --op-trace``: one JSON
# object per line, stable key order, round-trip exact (the codec tests
# assert load(dump(t)) == t).

_EVENT_FIELDS = ("core", "index", "kind", "addr", "value", "old_value", "mask")


def event_to_dict(event: "TraceEvent") -> Dict:
    """Plain JSON-safe dict for one :class:`TraceEvent`."""
    return {name: getattr(event, name) for name in _EVENT_FIELDS}


def event_from_dict(data: Dict) -> "TraceEvent":
    """Inverse of :func:`event_to_dict`.

    ``mask`` is optional so traces written before fence metadata was
    recorded still load (their fence events simply were not captured).
    """
    return TraceEvent(
        **{name: data[name] for name in _EVENT_FIELDS[:-2]},
        old_value=data.get("old_value"),
        mask=data.get("mask", 0),
    )


def dump_jsonl(events: Iterable["TraceEvent"], path: str) -> int:
    """Write events as JSON Lines; returns the number written."""
    count = 0
    with open(path, "w") as fh:
        for event in events:
            fh.write(json.dumps(event_to_dict(event), sort_keys=True))
            fh.write("\n")
            count += 1
    return count


def load_jsonl(path: str) -> "Trace":
    """Read a JSONL event file back into a :class:`Trace`."""
    trace = Trace()
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                trace.events.append(event_from_dict(json.loads(line)))
    return trace


@dataclass
class Trace:
    """Per-core event streams collected from one run."""

    events: List[TraceEvent] = field(default_factory=list)

    def per_core(self) -> Dict[int, List[TraceEvent]]:
        out: Dict[int, List[TraceEvent]] = {}
        for event in self.events:
            out.setdefault(event.core, []).append(event)
        for stream in out.values():
            stream.sort(key=lambda e: e.index)
        return out

    def accesses(self) -> List[TraceEvent]:
        """Only the value-carrying memory accesses, in recorded order."""
        return [e for e in self.events if e.is_access()]


def record_program(core_id: int, program, trace: Trace):
    """Wrap a workload generator, recording every memory operation.

    The wrapper is transparent: it forwards each yielded operation to
    the core and passes results back, logging (op, result) pairs.  An
    event's ``index`` is the ``seq`` the core gives its op, so it
    counts loads, stores, atomics and fences, not ``Compute`` or
    ``SetModel``.  A ``setmodel`` event shares the index of the op
    that follows it; :meth:`Trace.per_core`'s stable sort keeps it
    first.
    """
    index = 0
    result = None
    while True:
        try:
            op = program.send(result)
        except StopIteration:
            return
        result = yield op
        ops = op.ops if isinstance(op, Batch) else [op]
        results = result if isinstance(op, Batch) else [result]
        for sub_op, sub_result in zip(ops, results):
            if isinstance(sub_op, Load):
                trace.events.append(
                    TraceEvent(core_id, index, "load", sub_op.addr, sub_result)
                )
            elif isinstance(sub_op, Store):
                trace.events.append(
                    TraceEvent(core_id, index, "store", sub_op.addr, sub_op.value)
                )
            elif isinstance(sub_op, Atomic):
                trace.events.append(
                    TraceEvent(
                        core_id,
                        index,
                        "atomic",
                        sub_op.addr,
                        sub_op.value,
                        old_value=sub_result,
                    )
                )
            elif isinstance(sub_op, Membar):
                trace.events.append(
                    TraceEvent(
                        core_id, index, "membar", 0, 0, mask=int(sub_op.mask)
                    )
                )
            elif isinstance(sub_op, Stbar):
                # Stbar == Membar #SS (paper Table 3 note); record the
                # equivalent mask so offline replay needs no PSO special
                # case when the active table has no STBAR rows.
                trace.events.append(
                    TraceEvent(core_id, index, "stbar", 0, 0, mask=0x8)
                )
            elif isinstance(sub_op, SetModel):
                trace.events.append(
                    TraceEvent(
                        core_id,
                        index,
                        "setmodel",
                        0,
                        MODEL_CODES[sub_op.model.name],
                    )
                )
                continue
            else:
                continue  # Compute: not a memory op
            index += 1


@dataclass
class TraceViolation:
    """One offline-checker finding."""

    rule: str
    core: int
    index: int
    detail: str


class TraceChecker:
    """Golden-reference value checks over a recorded :class:`Trace`."""

    def __init__(self, trace: Trace, initial_value: int = 0):
        self.trace = trace
        self.initial = initial_value

    def check(self) -> List[TraceViolation]:
        """Run all offline checks; returns violations (empty = clean)."""
        return self.check_load_values() + self.check_uniprocessor_ordering()

    # ------------------------------------------------------------------
    def _written_values(self) -> Dict[int, Set[int]]:
        written: Dict[int, Set[int]] = {}
        for event in self.trace.events:
            if event.kind in ("store", "atomic"):
                written.setdefault(word_of(event.addr), set()).add(event.value)
        return written

    def check_load_values(self) -> List[TraceViolation]:
        """Every load (and atomic's old value) was actually written."""
        written = self._written_values()
        violations = []
        for event in self.trace.events:
            if not event.is_access():
                continue
            word = word_of(event.addr)
            observed = (
                event.value if event.kind == "load" else event.old_value
            )
            if event.kind == "store" or observed is None:
                continue
            legal = written.get(word, set()) | {self.initial}
            if observed not in legal:
                violations.append(
                    TraceViolation(
                        "out-of-thin-air",
                        event.core,
                        event.index,
                        f"{event.kind} of 0x{event.addr:x} observed "
                        f"0x{observed:x}, never written",
                    )
                )
        return violations

    def check_uniprocessor_ordering(self) -> List[TraceViolation]:
        """A core's load sees its own latest prior store to the word,
        unless another core also wrote that word (remote stores may
        legally intervene; such words are skipped conservatively)."""
        writers: Dict[int, Set[int]] = {}
        for event in self.trace.events:
            if event.kind in ("store", "atomic"):
                writers.setdefault(word_of(event.addr), set()).add(event.core)
        violations = []
        for core, stream in self.trace.per_core().items():
            last_local: Dict[int, int] = {}
            for event in stream:
                if not event.is_access():
                    continue
                word = word_of(event.addr)
                if event.kind in ("store", "atomic"):
                    last_local[word] = event.value
                    continue
                if writers.get(word, set()) - {core}:
                    continue  # shared word: remote values are legal
                expected = last_local.get(word, self.initial)
                if event.value != expected:
                    violations.append(
                        TraceViolation(
                            "uniprocessor-ordering",
                            core,
                            event.index,
                            f"load 0x{event.addr:x} got 0x{event.value:x}, "
                            f"expected 0x{expected:x}",
                        )
                    )
        return violations
