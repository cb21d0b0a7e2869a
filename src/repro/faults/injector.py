"""Fault injection into the memory system (paper Section 6.1).

The paper injects errors "into all components related to the memory
system: the load/store queue (LSQ), write buffer, caches, interconnect
switches and links, and memory and cache controllers", covering data
and address bit flips; dropped, reordered, mis-routed, and duplicated
messages; and reorderings and incorrect forwarding in the LSQ and write
buffer.  :class:`FaultKind` enumerates the same classes; the injector
mutates live simulator state (or installs one-shot network hooks) so
detection flows through the real checker mechanisms.
"""

from __future__ import annotations

import enum
import weakref
from dataclasses import dataclass, field
from typing import List, Optional

from repro.common.rng import SplitRng
from repro.common.types import WORDS_PER_BLOCK, CoherenceState
from repro.interconnect.base import FaultAction
from repro.interconnect.message import Message

from repro.coherence.messages import Coh, Snoop


class FaultKind(enum.Enum):
    """Injectable error classes, mirroring the paper's list."""

    # Interconnect faults (links and switches)
    MSG_DROP = "msg-drop"
    MSG_DUPLICATE = "msg-duplicate"
    MSG_MISROUTE = "msg-misroute"
    MSG_DATA_FLIP = "msg-data-flip"

    # Cache and memory array faults
    CACHE_STATE_FLIP = "cache-state-flip"  # controller state bit (S->M)
    CACHE_DATA_FLIP = "cache-data-flip"  # multi-bit flip beyond ECC
    MEM_DATA_FLIP = "mem-data-flip"  # multi-bit DRAM flip beyond ECC

    # Processor-side faults
    WB_VALUE_FLIP = "wb-value-flip"
    WB_ADDR_FLIP = "wb-addr-flip"
    WB_REORDER = "wb-reorder"
    LSQ_WRONG_VALUE = "lsq-wrong-value"  # incorrect LSQ forwarding


ALL_FAULT_KINDS = tuple(FaultKind)


@dataclass
class FaultPlan:
    """One injection: what, when, and (optionally) where."""

    kind: FaultKind
    at_cycle: int
    node: Optional[int] = None  # None -> injector picks randomly
    bit_mask: int = 0x0101_0100  # multi-bit pattern (defeats ECC)


@dataclass
class InjectionRecord:
    """What the injector actually did when the plan fired."""

    plan: FaultPlan
    armed_cycle: int
    landed: bool
    description: str
    details: dict = field(default_factory=dict)


class FaultInjector:
    """Arms fault plans against a built system."""

    def __init__(self, system, seed: int = 99):
        #: A weak proxy: the machine holds the injector's callbacks (its
        #: finalizer, queued retries and network hooks), so a strong
        #: reference back would keep it alive until a cycle collection.
        self.system = weakref.proxy(system)
        self.rng = SplitRng(seed).child("faults")
        self.records: List[InjectionRecord] = []
        #: Armed plans that have neither landed nor exhausted their
        #: retries.  The run can stop (workload done, deadline) while a
        #: retry is still queued; the system-level finalizer flushes
        #: such plans as not-landed so ``records`` reflects every plan.
        self._pending: List[FaultPlan] = []
        system.finalizers.append(self._flush_pending)

    # -- public API ---------------------------------------------------------
    #: State-dependent faults re-arm until a target exists.
    RETRY_DELAY = 500
    MAX_RETRIES = 40

    def arm(self, plan: FaultPlan) -> None:
        """Schedule the plan's injection at its cycle."""
        self.system.scheduler.post_at(plan.at_cycle, self._fire, (plan, 0))
        self._pending.append(plan)

    def _fire(self, plan: FaultPlan, attempt: int) -> None:
        if plan not in self._pending:  # already flushed by a finalizer
            return
        handler = getattr(self, f"_inject_{plan.kind.name.lower()}")
        self._attempt = attempt
        record = handler(plan)
        if not record.landed and attempt < self.MAX_RETRIES:
            self.system.scheduler.post(self.RETRY_DELAY, self._fire, (plan, attempt + 1))
            return
        self._pending.remove(plan)
        self.records.append(record)

    def _flush_pending(self) -> None:
        """Record any plan still retrying when the run stopped."""
        for plan in self._pending:
            self.records.append(
                self._record(plan, False, "no target before run ended")
            )
        self._pending.clear()

    def _record(self, plan: FaultPlan, landed: bool, desc: str, **details) -> InjectionRecord:
        return InjectionRecord(
            plan=plan,
            armed_cycle=self.system.scheduler.now,
            landed=landed,
            description=desc,
            details=details,
        )

    def _pick_node(self, plan: FaultPlan) -> int:
        if plan.node is not None:
            return plan.node
        return self.rng.randrange(self.system.config.num_nodes)

    # -- interconnect faults ------------------------------------------------
    def _one_shot_hook(self, action: FaultAction, mutate=None, need_data=False) -> str:
        """Install a hook hitting the next protocol message on the data
        network (checker/DVCC messages are excluded: the paper treats
        checker-hardware errors as false-positive sources, not targets)."""
        network = self.system.data_network
        fired = {"msg": None}

        def hook(msg: Message):
            if not isinstance(msg.kind, (Coh, Snoop)):
                return (FaultAction.DELIVER, None)
            if need_data and not msg.data:
                return (FaultAction.DELIVER, None)
            network.set_fault_hook(None)
            fired["msg"] = f"{msg.kind} {msg.src}->{msg.dst} addr=0x{msg.addr:x}"
            if mutate is not None:
                mutate(msg)
            if action is FaultAction.MISROUTE:
                wrong = (msg.dst + 1 + self.rng.randrange(
                    max(1, self.system.config.num_nodes - 1)
                )) % self.system.config.num_nodes
                if wrong == msg.dst:
                    wrong = (msg.dst + 1) % self.system.config.num_nodes
                return (action, wrong)
            return (action, None)

        network.set_fault_hook(hook)
        return "armed on next coherence message"

    def _inject_msg_drop(self, plan: FaultPlan) -> InjectionRecord:
        desc = self._one_shot_hook(FaultAction.DROP)
        return self._record(plan, True, f"drop: {desc}")

    def _inject_msg_duplicate(self, plan: FaultPlan) -> InjectionRecord:
        desc = self._one_shot_hook(FaultAction.DUPLICATE)
        return self._record(plan, True, f"duplicate: {desc}")

    def _inject_msg_misroute(self, plan: FaultPlan) -> InjectionRecord:
        desc = self._one_shot_hook(FaultAction.MISROUTE)
        return self._record(plan, True, f"misroute: {desc}")

    def _inject_msg_data_flip(self, plan: FaultPlan) -> InjectionRecord:
        def mutate(msg: Message) -> None:
            if msg.data:
                index = self.rng.randrange(len(msg.data))
                msg.data[index] ^= plan.bit_mask

        desc = self._one_shot_hook(FaultAction.DELIVER, mutate=mutate, need_data=True)
        return self._record(plan, True, f"data flip: {desc}")

    # -- cache / memory faults ---------------------------------------------
    def _inject_cache_state_flip(self, plan: FaultPlan) -> InjectionRecord:
        """Flip a coherence-state bit: a Shared line becomes Modified,
        letting stores slip through without write permission."""
        from repro.workloads.suite import PRIVATE_BASE, SHARED_BASE

        nodes = list(range(self.system.config.num_nodes))
        self.rng.shuffle(nodes)
        for node in nodes:
            lines = [
                l
                for l in self.system.cache_controllers[node].l1.lines()
                if l.state is CoherenceState.S
            ]
            # Prefer lock-region lines (every node's atomics exercise
            # them), then any shared line: the missing write permission
            # must actually be used for the fault to activate.  Stay
            # strict for the first half of the retry budget.
            locks = [l for l in lines if l.addr < SHARED_BASE]
            if getattr(self, "_attempt", 0) < self.MAX_RETRIES // 2:
                lines = locks
            else:
                hot = [l for l in lines if l.addr < PRIVATE_BASE]
                lines = locks or hot or lines
            if lines:
                line = self.rng.choice(lines)
                line.state = CoherenceState.M
                return self._record(
                    plan,
                    True,
                    f"state flip S->M at node {node} block 0x{line.addr:x}",
                    node=node,
                    block=line.addr,
                )
        return self._record(plan, False, "no Shared line to corrupt")

    def _inject_cache_data_flip(self, plan: FaultPlan) -> InjectionRecord:
        """Multi-bit flip (beyond ECC) in a clean cached block."""
        nodes = list(range(self.system.config.num_nodes))
        self.rng.shuffle(nodes)
        for node in nodes:
            lines = [
                l
                for l in self.system.cache_controllers[node].l1.lines()
                if l.state in (CoherenceState.S, CoherenceState.O)
            ]
            if lines:
                line = self.rng.choice(lines)
                index = self.rng.randrange(WORDS_PER_BLOCK)
                line.data[index] ^= plan.bit_mask
                return self._record(
                    plan,
                    True,
                    f"cache data flip at node {node} block 0x{line.addr:x}",
                    node=node,
                    block=line.addr,
                )
        return self._record(plan, False, "no clean line to corrupt")

    def _inject_mem_data_flip(self, plan: FaultPlan) -> InjectionRecord:
        """Multi-bit DRAM flip in a block no cache currently holds.

        Working sets that fit in L1 never evict, so a truly uncached
        touched block may not exist; fall back to flipping DRAM under a
        block cached only in Shared state.  No dirty owner will ever
        write back over the flip, so the corruption stays latent until
        the clean copies are dropped and the block is re-fetched from
        memory (a scrubber pass, or the next capacity miss).
        """
        states: dict = {}
        for controller in self.system.cache_controllers:
            for l in controller.l1.lines():
                states.setdefault(l.addr, set()).add(l.state)
        candidates = []
        for node, memory in enumerate(self.system.memories):
            for block in memory.touched_blocks():
                if block not in states:
                    candidates.append((node, block))
        if not candidates:
            candidates = [
                (self.system.home_of(block), block)
                for block, s in states.items()
                if s <= {CoherenceState.S}
            ]
        if not candidates:
            return self._record(plan, False, "no memory-resident block")
        from repro.workloads.suite import PRIVATE_BASE, SHARED_BASE

        shared = [
            (n, b) for n, b in candidates if SHARED_BASE <= b < PRIVATE_BASE
        ]
        node, block = self.rng.choice(shared or candidates)
        offset = self.rng.randrange(WORDS_PER_BLOCK) * 4
        self.system.memories[node].corrupt_word(
            block + offset, plan.bit_mask, defeat_ecc=True
        )
        return self._record(
            plan, True, f"memory flip at home {node} block 0x{block:x}",
            node=node, block=block,
        )

    # -- processor-side faults -----------------------------------------------
    def _wb_with_entries(self, plan: FaultPlan):
        order = list(range(self.system.config.num_nodes))
        self.rng.shuffle(order)
        if plan.node is not None:
            order = [plan.node]
        for node in order:
            wb = self.system.cores[node].wb
            if wb is not None and len(wb):
                return node, wb
        return None, None

    def _corruptible_indices(self, wb) -> list:
        """Entries whose corruption can still land (not yet issued)."""
        return [i for i, e in enumerate(wb.entries()) if not e.issued]

    def _inject_wb_value_flip(self, plan: FaultPlan) -> InjectionRecord:
        node, wb = self._wb_with_entries(plan)
        indices = self._corruptible_indices(wb) if wb is not None else []
        if not indices:
            return self._record(plan, False, "no corruptible WB entry")
        wb.corrupt_entry(self.rng.choice(indices), value_xor=plan.bit_mask)
        return self._record(plan, True, f"WB value flip at node {node}", node=node)

    def _inject_wb_addr_flip(self, plan: FaultPlan) -> InjectionRecord:
        node, wb = self._wb_with_entries(plan)
        indices = self._corruptible_indices(wb) if wb is not None else []
        if not indices:
            return self._record(plan, False, "no corruptible WB entry")
        # Flip an address bit: the store lands on a neighbouring word.
        wb.corrupt_entry(self.rng.choice(indices), addr_xor=4)
        return self._record(plan, True, f"WB addr flip at node {node}", node=node)

    def _inject_wb_reorder(self, plan: FaultPlan) -> InjectionRecord:
        node, wb = self._wb_with_entries(plan)
        if wb is None or not wb.illegal_reorder():
            return self._record(plan, False, "fewer than two swappable WB entries")
        return self._record(plan, True, f"WB illegal reorder at node {node}", node=node)

    def _inject_lsq_wrong_value(self, plan: FaultPlan) -> InjectionRecord:
        node = self._pick_node(plan)
        self.system.cores[node].fault_load_value_xor = plan.bit_mask
        return self._record(
            plan, True, f"next load at node {node} returns a corrupted value",
            node=node,
        )
