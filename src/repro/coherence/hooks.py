"""Observation hooks linking the memory system to checkers and BER.

Coherence controllers announce epoch lifecycle events, accesses, and
state-modifying writes through a :class:`SystemHooks` instance.  The
DVMC coherence checker, SafetyNet, and the logical-time base subscribe;
an unprotected system runs with the no-op defaults.  Keeping the
protocol blind to its observers mirrors the paper's claim that
Inform-Epoch generation is off the critical path and adds no protocol
states.

Epoch events are split three ways because an epoch can begin before its
data arrives (the paper's CET *DataReadyBit*): in the snooping system an
epoch opens at the request's serialization point on the ordered address
network, while the data block shows up later on the data network.
``epoch_begin``/``epoch_end`` may therefore carry ``data=None``; the
missing hash is supplied by ``epoch_data`` when the block arrives.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.common.types import EpochType


class SystemHooks:
    """Multicast dispatch of memory-system events.

    All callbacks are synchronous and must not raise during normal
    operation; checkers report problems through their violation sinks.

    The subscriber lists are public on purpose: dispatch sites on the
    per-access hot path guard with ``if hooks.sub_block_write:`` (plain
    attribute truthiness) before building the argument payload, so an
    unobserved system never pays for the ``list(line.data)`` snapshots
    the observers would have received.  Treat them as read-only;
    register through the ``on_*`` methods.
    """

    __slots__ = (
        "sub_epoch_begin",
        "sub_epoch_data",
        "sub_epoch_end",
        "sub_access",
        "sub_block_write",
        "sub_mem_write",
        "sub_snoop_tick",
        "sub_invalidation",
        "sub_home_request",
    )

    def __init__(self) -> None:
        self.sub_epoch_begin: List[Callable] = []
        self.sub_epoch_data: List[Callable] = []
        self.sub_epoch_end: List[Callable] = []
        self.sub_access: List[Callable] = []
        self.sub_block_write: List[Callable] = []
        self.sub_mem_write: List[Callable] = []
        self.sub_snoop_tick: List[Callable] = []
        self.sub_invalidation: List[Callable] = []
        self.sub_home_request: List[Callable] = []

    # Registration -------------------------------------------------------
    def on_epoch_begin(
        self, fn: Callable[[int, int, EpochType, Optional[list]], None]
    ) -> None:
        """fn(node, block_addr, epoch_type, block_data_or_None, lt_or_None)

        ``lt`` is an explicit logical timestamp for protocols whose
        epochs transition at serialization points (snooping); None means
        "now" per the system's logical-time base."""
        self.sub_epoch_begin.append(fn)

    def on_epoch_data(self, fn: Callable[[int, int, list], None]) -> None:
        """fn(node, block_addr, block_data) — data arrived for an epoch
        that began earlier (DataReadyBit transition)."""
        self.sub_epoch_data.append(fn)

    def on_epoch_end(self, fn: Callable[[int, int, Optional[list]], None]) -> None:
        """fn(node, block_addr, block_data_at_end_or_None, lt_or_None)"""
        self.sub_epoch_end.append(fn)

    def on_access(self, fn: Callable[[int, int, bool], None]) -> None:
        """fn(node, addr, is_store) — called when an access performs."""
        self.sub_access.append(fn)

    def on_block_write(self, fn: Callable[[int, int, list], None]) -> None:
        """fn(node, block_addr, old_data) — before a cache block changes."""
        self.sub_block_write.append(fn)

    def on_memory_write(self, fn: Callable[[int, int, list, list], None]) -> None:
        """fn(home_node, block_addr, old_data, new_data) — before a
        writeback replaces a memory block's contents."""
        self.sub_mem_write.append(fn)

    def on_snoop_tick(self, fn: Callable[[int], None]) -> None:
        """fn(node) — a controller processed one ordered snoop."""
        self.sub_snoop_tick.append(fn)

    def on_invalidation(self, fn: Callable[[int, int], None]) -> None:
        """fn(node, block_addr) — node lost read permission for block.

        Cores use this to detect writes to speculatively loaded
        addresses (load-order mis-speculation squash, paper 4.1).
        """
        self.sub_invalidation.append(fn)

    def on_home_request(self, fn: Callable[[int, int], None]) -> None:
        """fn(home_node, block_addr) — a home controller is processing a
        request for the block (MET entries are created here)."""
        self.sub_home_request.append(fn)

    def clear(self) -> None:
        """Drop every subscriber (the System does so when it is freed)."""
        for name in self.__slots__:
            getattr(self, name).clear()

    # Dispatch -------------------------------------------------------------
    def epoch_begin(
        self,
        node: int,
        addr: int,
        etype: EpochType,
        data: Optional[list],
        lt: Optional[int] = None,
    ) -> None:
        for fn in self.sub_epoch_begin:
            fn(node, addr, etype, data, lt)

    def epoch_data(self, node: int, addr: int, data: list) -> None:
        for fn in self.sub_epoch_data:
            fn(node, addr, data)

    def epoch_end(
        self,
        node: int,
        addr: int,
        data: Optional[list],
        lt: Optional[int] = None,
    ) -> None:
        for fn in self.sub_epoch_end:
            fn(node, addr, data, lt)

    def access(self, node: int, addr: int, is_store: bool) -> None:
        for fn in self.sub_access:
            fn(node, addr, is_store)

    def block_write(self, node: int, addr: int, old_data: list) -> None:
        for fn in self.sub_block_write:
            fn(node, addr, old_data)

    def memory_write(self, node: int, addr: int, old_data: list, new_data: list) -> None:
        for fn in self.sub_mem_write:
            fn(node, addr, old_data, new_data)

    def snoop_tick(self, node: int) -> None:
        for fn in self.sub_snoop_tick:
            fn(node)

    def invalidation(self, node: int, addr: int) -> None:
        for fn in self.sub_invalidation:
            fn(node, addr)

    def home_request(self, home: int, addr: int) -> None:
        for fn in self.sub_home_request:
            fn(home, addr)
