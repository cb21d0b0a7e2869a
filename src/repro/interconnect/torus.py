"""2D torus with XY (dimension-order) routing — the express message plane.

The paper's data network (both protocols) and the directory system's
only network: a 2D torus of 2.5 GB/s links (Table 6).  Each directed
link serialises one message at a time at the configured bytes/cycle,
and per-link byte counters feed the Figure 7 bandwidth analysis.

**Whole-path link reservation.**  A message's entire route is a pure
function of (src, dst) under XY routing, so ``send()`` walks the
memoized link path once and reserves every directed link *at send
time* with the recurrence::

    t_0     = now
    start_k = max(free_at_k, t_k)
    free_at_k <- start_k + ser          # ser = serialization cycles
    t_{k+1} = start_k + ser + hop_fixed # hop_fixed = link + switch latency

Per-link byte counters are charged during the same walk, and the final
delivery event is posted at send time, so its position in its cycle's
tie-break order depends only on architectural history.  No event is
posted per hop; ``tests/interconnect/test_express_identity.py`` checks
the result against a per-hop timetable recomputed from grid coordinates.

Reservation order is global **send order** (the paper's torus is
unordered between src/dst pairs; per-link FIFO now follows send order
rather than hop-arrival order — see EXPERIMENTS.md, "Express message
plane").
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from repro.common.errors import ConfigError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.obs.spans import K_LINK, K_MSG

from .base import Network
from .message import Message


def grid_shape(num_nodes: int) -> Tuple[int, int]:
    """(rows, cols) of the most-square grid holding ``num_nodes``.

    The paper's 8-node systems form a 2x4 torus.
    """
    rows = int(math.isqrt(num_nodes))
    while rows > 1 and num_nodes % rows != 0:
        rows -= 1
    return rows, num_nodes // rows


class _Link:
    """One directed link: serialisation + occupancy tracking."""

    __slots__ = ("free_at", "key", "hidx", "high_water", "span_track")

    def __init__(self, key: str, hidx: int):
        self.free_at = 0
        self.key = key
        #: Preresolved stats handle for the per-link byte counter.
        self.hidx = hidx
        #: Largest reservation backlog seen (cycles the link was already
        #: booked ahead when a new reservation landed).
        self.high_water = 0
        #: Flight-recorder track id, interned on first traced use.
        self.span_track = 0


class TorusNetwork(Network):
    """2D torus, XY routing, wraparound in both dimensions.

    Delivery order between different source-destination pairs is not
    globally ordered (the paper's torus is "unordered"); per-link
    transmission is FIFO in send order.
    """

    def __init__(
        self,
        name: str,
        scheduler: Scheduler,
        stats: StatsRegistry,
        num_nodes: int,
        config: NetworkConfig,
    ):
        super().__init__(name, scheduler, stats)
        if num_nodes < 1:
            raise ConfigError("torus needs at least one node")
        self.config = config
        self.rows, self.cols = grid_shape(num_nodes)
        self._num_nodes = num_nodes
        self._links: Dict[Tuple[int, int], _Link] = {}
        #: Next-hop memo: XY routing is a pure function of (cur, dst),
        #: keyed ``cur * n + dst`` so lookups need no tuple allocation.
        self._next_hop: Dict[int, int] = {}
        #: Whole-path memos, same int key: the node sequence (route())
        #: and the directed-link sequence send() walks for reservation.
        self._node_paths: Dict[int, Tuple[int, ...]] = {}
        self._link_paths: Dict[int, Tuple[_Link, ...]] = {}
        #: Serialization cycles by message size; sizes take only a
        #: handful of distinct (interned small-int) values.
        self._ser_memo: Dict[int, int] = {}
        self._hop_fixed = config.link_latency + config.switch_latency
        self._switch_latency = config.switch_latency

    # Topology helpers ---------------------------------------------------
    def _coords(self, node: int) -> Tuple[int, int]:
        return divmod(node, self.cols)

    def _node_at(self, row: int, col: int) -> int:
        return (row % self.rows) * self.cols + (col % self.cols)

    def _step_toward(self, cur: int, dst: int) -> int:
        """Next hop under XY routing with shortest wraparound."""
        key = cur * self._num_nodes + dst
        nxt = self._next_hop.get(key)
        if nxt is None:
            nxt = self._next_hop[key] = self._compute_step(cur, dst)
        return nxt

    def _compute_step(self, cur: int, dst: int) -> int:
        crow, ccol = self._coords(cur)
        drow, dcol = self._coords(dst)
        if ccol != dcol:
            fwd = (dcol - ccol) % self.cols
            back = (ccol - dcol) % self.cols
            step = 1 if fwd <= back else -1
            return self._node_at(crow, ccol + step)
        fwd = (drow - crow) % self.rows
        back = (crow - drow) % self.rows
        step = 1 if fwd <= back else -1
        return self._node_at(crow + step, ccol)

    def _node_path(self, key: int, src: int, dst: int) -> Tuple[int, ...]:
        """Memoized full node sequence from ``src`` to ``dst``."""
        path = [src]
        cur = src
        guard = self.rows + self.cols + 2
        while cur != dst:
            cur = self._step_toward(cur, dst)
            path.append(cur)
            if len(path) > guard:  # pragma: no cover - defensive
                raise ConfigError("routing loop in torus")
        memo = tuple(path)
        self._node_paths[key] = memo
        return memo

    def route(self, src: int, dst: int) -> List[int]:
        """Full node path from ``src`` to ``dst`` (inclusive).

        Served from the same path memo ``send()`` reserves over, so
        repeated route queries cost one dict lookup.
        """
        key = src * self._num_nodes + dst
        path = self._node_paths.get(key)
        if path is None:
            path = self._node_path(key, src, dst)
        return list(path)

    def _link(self, a: int, b: int) -> _Link:
        link = self._links.get((a, b))
        if link is None:
            key = f"net.{self.name}.link.{a}-{b}"
            link = _Link(key, self.stats.handle(key))
            self._links[(a, b)] = link
        return link

    def _link_path(self, key: int, src: int, dst: int) -> Tuple[_Link, ...]:
        """Memoized directed-link sequence along the XY route."""
        nodes = self._node_paths.get(key)
        if nodes is None:
            nodes = self._node_path(key, src, dst)
        links = tuple(
            self._link(nodes[i], nodes[i + 1]) for i in range(len(nodes) - 1)
        )
        self._link_paths[key] = links
        return links

    # Sending ------------------------------------------------------------
    def send(self, message: Message) -> None:
        """Inject ``message``: reserve its whole path, then deliver."""
        self.messages_sent += 1
        if self._fault_hook is not None:
            msgs = self._apply_fault_hook(message)
        else:
            msgs = (message,)
        n = self._num_nodes
        values = self._values
        hop_fixed = self._hop_fixed
        spans = self.spans
        for msg in msgs:
            dst = msg.dst
            src = msg.src
            now = self.scheduler.now
            # Every flight is recorded; an op-less message (an
            # Inform-Epoch, a writeback) carries trace id 0.
            traced = spans is not None
            if dst == src:
                # Local delivery (e.g. home node is the requestor):
                # bypasses the network after the switch latency.
                t = now + self._switch_latency
                if traced:
                    spans.span(
                        msg.tid, self._span_track, K_MSG, now, t,
                        msg.addr, src, dst,
                    )
                self.deliver_at(t, msg)
                continue
            key = src * n + dst
            path = self._link_paths.get(key)
            if path is None:
                path = self._link_path(key, src, dst)
            size = msg.size_bytes
            ser = self._ser_memo.get(size)
            if ser is None:
                ser = self._ser_memo[size] = self.config.serialization_cycles(
                    size
                )
            t = now
            for link in path:
                free = link.free_at
                start = free if free > t else t
                if free > t:
                    backlog = free - t
                    if backlog > link.high_water:
                        link.high_water = backlog
                link.free_at = start + ser
                t = start + ser + hop_fixed
                values[link.hidx] += size
                if traced:
                    lt = link.span_track
                    if not lt:
                        lt = link.span_track = spans.track(link.key)
                    spans.span(
                        msg.tid, lt, K_LINK, start, start + ser,
                        msg.addr, src, dst,
                    )
            if traced:
                spans.span(
                    msg.tid, self._span_track, K_MSG, now, t,
                    msg.addr, src, dst,
                )
            self.deliver_at(t, msg)

    # Introspection ------------------------------------------------------
    def obs_snapshot(self) -> dict:
        """Torus view: base traffic numbers plus route and reservation state."""
        snap = super().obs_snapshot()
        snap.update(
            {
                "topology": f"torus-{self.rows}x{self.cols}",
                "links_active": len(self._links),
                "next_hop_memo_entries": len(self._next_hop),
                "path_memo_entries": len(self._link_paths),
                "reservation_queue_high_water": max(
                    (link.high_water for link in self._links.values()),
                    default=0,
                ),
            }
        )
        return snap
