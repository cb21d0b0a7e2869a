"""Ordered broadcast tree: the snooping protocol's address network.

The paper's snooping system uses a broadcast tree of 2.5 GB/s ordered
links for coherence requests (Table 6).  The essential property is a
*total order*: every controller (including the sender and the memory
controllers) observes all requests in the same sequence.  We model the
tree as a root arbiter: requests serialise through the root and are
then broadcast to every node; bandwidth is accounted on the up-link
from the sender and the down-link to every receiver.
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

    ``send`` broadcasts to **all** registered nodes; ``message.dst`` is
    ignored on input and rewritten per delivery.  All controllers see
    broadcasts in the same global order, which the snooping protocol
    uses as its serialisation point and the coherence checker uses as
    its logical time base.
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
        #: (sorted nodes, their handlers, down-link handles), rebuilt
        #: lazily after registration changes.
        self._fanout = None

    def register(self, node, handler):
        super().register(node, handler)
        self._fanout = None

    def unlink(self) -> None:
        super().unlink()
        self._fanout = None

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
            self._post_at(deliver, self._broadcast, (msg, order_index))

    def _broadcast(self, msg: Message, order_index: int) -> None:
        # One scheduled event fans out to every node synchronously, so
        # a broadcast is already a maximally batched delivery — there
        # is nothing for ``deliver_at`` to coalesce (root serialisation
        # keeps distinct broadcasts on distinct cycles).  Each node's
        # single message goes straight to its plain handler.
        fanout = self._fanout
        if fanout is None:
            nodes = sorted(self._handlers)
            fanout = self._fanout = [
                (
                    node,
                    self._handlers[node],
                    self.stats.handle(f"net.{self.name}.link.root-{node}"),
                )
                for node in nodes
            ]
        values = self._values
        size = msg.size_bytes
        src = msg.src
        for node, handler, hidx in fanout:
            values[hidx] += size
            delivered = msg if node == src else self._clone_for(msg, node)
            delivered.dst = node
            delivered.order = order_index
            handler(delivered)

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

    @staticmethod
    def _clone_for(msg: Message, node: int) -> Message:
        clone = msg.copy_for_duplicate()
        clone.uid = msg.uid  # same logical broadcast
        clone.dst = node
        return clone
