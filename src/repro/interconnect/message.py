"""Network messages: packed records with fixed int slots.

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
:mod:`repro.dvmc.coherence_checker`.
"""

from __future__ import annotations

import itertools
from typing import Any, List, Optional

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
        tid: flight-recorder trace id of the memory operation this
            message serves (0 = untraced; see :mod:`repro.obs.spans`).
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
        "tid",
    )

    def __init__(
        self,
        src: int,
        dst: int,
        kind: Any,
        addr: int = 0,
        data: Optional[List[int]] = None,
        size_bytes: int = 8,
        req: int = -1,
        acks: int = -1,
        flags: int = 0,
    ):
        self.src = src
        self.dst = dst
        self.kind = kind
        self.addr = addr
        self.data = data
        self.size_bytes = size_bytes
        self.uid = next(_uid_counter)
        self.req = req
        self.acks = acks
        self.flags = flags
        self.etype = -1
        self.t_begin = -1
        self.t_end = -1
        self.h_begin = -1
        self.h_end = -1
        self.tid = 0

    def copy_for_duplicate(self) -> "Message":
        """Clone with a fresh uid (used by the duplication fault)."""
        clone = Message(
            src=self.src,
            dst=self.dst,
            kind=self.kind,
            addr=self.addr,
            data=None if self.data is None else list(self.data),
            size_bytes=self.size_bytes,
            req=self.req,
            acks=self.acks,
            flags=self.flags,
        )
        clone.etype = self.etype
        clone.t_begin = self.t_begin
        clone.t_end = self.t_end
        clone.h_begin = self.h_begin
        clone.h_end = self.h_end
        clone.tid = self.tid
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Message(#{self.uid} {self.kind} {self.src}->{self.dst} "
            f"addr=0x{self.addr:x})"
        )

