"""Network messages: packed records with a recycling freelist.

The interconnect treats message kinds opaquely; coherence protocols and
the DVMC coherence checker define their own kind enums.  Sizes follow
the paper's accounting: data messages carry a 64 B block plus header,
control messages are small, and Inform-Epoch messages carry an address,
epoch type, two 16-bit timestamps and two 16-bit hashes.

Protocol extras ride fixed int slots instead of a per-message dict —
``req`` (requestor node), ``acks`` (invalidation-ack count), ``flags``
(data-coming / have-line bits), and the Inform-Epoch quartet ``etype``
/ ``t_begin`` / ``t_end`` / ``h_begin`` / ``h_end`` — all ``-1`` (or 0
for ``flags``) when absent, mirroring the flat MET record layout in
:mod:`repro.dvmc.coherence_checker`.  ``order`` carries a broadcast's
position in the snooping address network's total order.

Delivered records are recycled through a bounded module-level freelist
(:func:`acquire` / :func:`release`).  Lifetime rules:

* a consumer may call :func:`release` only when it is the message's
  **sole** receiver and is done reading it (snooping *address*
  broadcasts have two consumers per node and are never released);
* messages touched by an armed fault hook, duplicated by the injector,
  or handed an external ``meta`` dict are marked ``no_recycle`` — the
  holder of the extra reference keeps a stable object;
* ``data`` payload lists are never pooled: :func:`release` drops the
  reference and consumers that retain data copy it
  (``MainMemory.write_block`` and the cache install paths already do).
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Optional

_uid_counter = itertools.count()

#: ``Message.flags`` bits.
FLAG_DATA_COMING = 1  #: AckCount: a Data reply is in flight.
FLAG_HAVE_LINE = 2  #: GetM: requestor still holds a valid (S/O) copy.


class Message:
    """A unicast message between two nodes.

    Attributes:
        src: sending node id.
        dst: destination node id.
        kind: protocol-defined message kind (any hashable; usually an enum).
        addr: block address the message concerns (or 0 for barriers).
        data: optional data-block payload (list of words); mutable so the
            fault injector can flip bits in flight.
        size_bytes: wire size used for bandwidth accounting.
        uid: unique id for tracing and duplicate detection in tests.
        req: requestor node id for forwarded/invalidate messages (-1 none).
        acks: invalidation-ack count on AckCount replies (-1 none).
        flags: FLAG_* bit set (0 none).
        etype: epoch-type code on informs (0 RO, 1 RW, -1 none).
        t_begin/t_end: epoch begin/end logical timestamps (-1 absent).
        h_begin/h_end: epoch begin/end block hashes (-1 absent).
        order: broadcast total-order index (-1 none).
        tid: flight-recorder trace id of the memory operation this
            message serves (0 = untraced; see :mod:`repro.obs.spans`).
        no_recycle: never return this record to the freelist.
    """

    __slots__ = (
        "src",
        "dst",
        "kind",
        "addr",
        "data",
        "size_bytes",
        "uid",
        "req",
        "acks",
        "flags",
        "etype",
        "t_begin",
        "t_end",
        "h_begin",
        "h_end",
        "order",
        "tid",
        "no_recycle",
        "_in_pool",
        "_extras",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: Any,
        addr: int = 0,
        data: Optional[List[int]] = None,
        meta: Optional[Dict[str, Any]] = None,
        size_bytes: int = 8,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.addr = addr
        self.data = data
        self.size_bytes = size_bytes
        self.uid = next(_uid_counter)
        self.req = -1
        self.acks = -1
        self.flags = 0
        self.etype = -1
        self.t_begin = -1
        self.t_end = -1
        self.h_begin = -1
        self.h_end = -1
        self.order = -1
        self.tid = 0
        self.no_recycle = meta is not None
        self._in_pool = False
        self._extras = meta

    @property
    def meta(self) -> Dict[str, Any]:
        """Compat extras dict (cold path: tests, tools).

        Created lazily; a message whose extras dict has been handed out
        is pinned (``no_recycle``) because the dict may be aliased.
        """
        extras = self._extras
        if extras is None:
            extras = self._extras = {}
            self.no_recycle = True
        return extras

    def copy_for_duplicate(self) -> "Message":
        """Clone with a fresh uid (used by the duplication fault)."""
        clone = Message(
            src=self.src,
            dst=self.dst,
            kind=self.kind,
            addr=self.addr,
            data=None if self.data is None else list(self.data),
            meta=None if self._extras is None else dict(self._extras),
            size_bytes=self.size_bytes,
        )
        clone.req = self.req
        clone.acks = self.acks
        clone.flags = self.flags
        clone.etype = self.etype
        clone.t_begin = self.t_begin
        clone.t_end = self.t_end
        clone.h_begin = self.h_begin
        clone.h_end = self.h_end
        clone.order = self.order
        clone.tid = self.tid
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(#{self.uid} {self.kind} {self.src}->{self.dst} "
            f"addr=0x{self.addr:x})"
        )


# Freelist -----------------------------------------------------------------
#
# Module-level (per process; parallel workers each get their own).  The
# pool is bounded so a pathological run cannot pin unbounded garbage,
# and the counters feed the obs network layer's ``msg_pool_allocated``
# / ``msg_pool_reused`` fields.

_POOL: List[Message] = []
_POOL_CAP = 1024
_allocated = 0
_reused = 0


def acquire(
    src: int,
    dst: int,
    kind: Any,
    addr: int = 0,
    data: Optional[List[int]] = None,
    size_bytes: int = 8,
    req: int = -1,
    acks: int = -1,
    flags: int = 0,
) -> Message:
    """Pooled :class:`Message` constructor (the hot-path entry point)."""
    global _allocated, _reused
    pool = _POOL
    if pool:
        _reused += 1
        msg = pool.pop()
        msg.src = src
        msg.dst = dst
        msg.kind = kind
        msg.addr = addr
        msg.data = data
        msg.size_bytes = size_bytes
        msg.uid = next(_uid_counter)
        msg.req = req
        msg.acks = acks
        msg.flags = flags
        msg.etype = -1
        msg.t_begin = -1
        msg.t_end = -1
        msg.h_begin = -1
        msg.h_end = -1
        msg.order = -1
        msg.tid = 0
        msg.no_recycle = False
        msg._in_pool = False
        msg._extras = None
        return msg
    _allocated += 1
    msg = Message(src, dst, kind, addr, data, None, size_bytes)
    msg.req = req
    msg.acks = acks
    msg.flags = flags
    return msg


def release(msg: Message) -> None:
    """Return a delivered record to the freelist.

    No-op for pinned records (``no_recycle``), records already pooled
    (double-release guard), or when the pool is full.  The data payload
    reference is dropped — payload lists are never recycled.
    """
    if msg.no_recycle or msg._in_pool:
        return
    pool = _POOL
    if len(pool) >= _POOL_CAP:
        return
    msg._in_pool = True
    msg.data = None
    msg.kind = None
    msg._extras = None
    pool.append(msg)


def pool_stats() -> Dict[str, int]:
    """Freelist introspection: depth + lifetime alloc/reuse counters."""
    return {
        "depth": len(_POOL),
        "allocated": _allocated,
        "reused": _reused,
    }
