"""Ordered broadcast tree: the snooping protocol's address network.

The paper's snooping system uses a broadcast tree of 2.5 GB/s ordered
links for coherence requests (Table 6).  The essential property is a
*total order*: every controller (including the sender and the memory
controllers) observes all requests in the same sequence.  We model the
tree as a root arbiter: requests serialise through the root and are
then broadcast to every node; bandwidth is accounted on the up-link
from the sender and the down-link to every receiver.  Each ordered
request is one delivery, of the message its sender built, to the
network's snoop bus.
"""

from __future__ import annotations


from repro.common.errors import ConfigError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.obs.spans import K_BCAST

from .base import Network
from .message import Message


class BroadcastTreeNetwork(Network):
    """Totally ordered broadcast network.

    ``send`` orders a request at the root and, once it has crossed the
    down-links, hands the sender's message to :attr:`bus` (wired by
    :func:`~repro.system.builder.build_system`); ``message.dst`` is
    ignored and there are no per-node handlers.  The bus shows each
    request to every controller at once, so all of them see requests
    in the same global order, which the snooping protocol uses as its
    serialisation point and the coherence checker as its logical time.
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
            raise ConfigError("broadcast tree needs at least one node")
        self.config = config
        self._num_nodes = num_nodes
        self._root_free_at = 0
        self.order_count = 0  # total broadcasts ordered so far
        self._ser_memo = {}
        #: Per-source up-link byte-counter handles, resolved on first use.
        self._up_handles = {}
        #: Down-link byte-counter handles, root -> node 0..N-1,
        #: resolved on the first broadcast.
        self._fanout = None
        #: The one receiver of every ordered request (``None`` until
        #: the machine is wired, and again once it is unlinked).
        self.bus = None

    def unlink(self) -> None:
        super().unlink()
        self.bus = None

    def send(self, message: Message) -> None:
        """Arbitrate at the root, then broadcast in total order."""
        self.messages_sent += 1
        if self._fault_hook is not None:
            msgs = self._apply_fault_hook(message)
        else:
            msgs = (message,)
        values = self._values
        link_latency = self.config.link_latency
        for msg in msgs:
            size = msg.size_bytes
            ser = self._ser_memo.get(size)
            if ser is None:
                ser = self._ser_memo[size] = self.config.serialization_cycles(
                    size
                )
            start = self.scheduler.now + link_latency
            if self._root_free_at > start:
                start = self._root_free_at
            self._root_free_at = start + ser
            hidx = self._up_handles.get(msg.src)
            if hidx is None:
                hidx = self._up_handles[msg.src] = self.stats.handle(
                    f"net.{self.name}.link.{msg.src}-root"
                )
            values[hidx] += size
            order_index = self.order_count
            self.order_count += 1
            deliver = start + ser + link_latency
            s = self.spans
            if s is not None:
                # Arbitration + fanout as one span: root serialisation
                # makes the delivery cycle known at send time.  Op-less
                # broadcasts (writebacks) carry trace id 0.
                s.span(
                    msg.tid, self._span_track, K_BCAST,
                    self.scheduler.now, deliver,
                    msg.addr, msg.src, order_index,
                )
            self._post_at(deliver, self._broadcast, (msg,))

    def _broadcast(self, msg: Message) -> None:
        # One scheduled event charges every down-link and makes one
        # delivery: there is nothing for ``deliver_at`` to coalesce
        # (root serialisation keeps distinct broadcasts on distinct
        # cycles).
        fanout = self._fanout
        if fanout is None:
            fanout = self._fanout = [
                self.stats.handle(f"net.{self.name}.link.root-{node}")
                for node in range(self._num_nodes)
            ]
        values = self._values
        size = msg.size_bytes
        for hidx in fanout:
            values[hidx] += size
        self.bus(msg)

    def obs_snapshot(self) -> dict:
        """Broadcast-tree view: ordered-broadcast accounting."""
        snap = super().obs_snapshot()
        snap.update(
            {
                "topology": f"broadcast-tree-{self._num_nodes}",
                "broadcasts_ordered": self.order_count,
                "root_free_at": self._root_free_at,
            }
        )
        return snap
