"""Abstract network interface and fault hooks.

Networks deliver :class:`~repro.interconnect.message.Message` objects to
per-node handlers.  A single fault hook can be installed; the fault
injector uses it to drop, duplicate, misroute, delay, or corrupt
messages in flight (paper Section 6.1's injected network errors).
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from typing import Callable, Dict, List, Optional

from repro.common.errors import ConfigError, SimulationError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry

from .message import Message


class FaultAction(enum.Enum):
    """What a network fault hook asks the network to do with a message."""

    DELIVER = "deliver"  # normal delivery (possibly after mutation)
    DROP = "drop"
    DUPLICATE = "duplicate"  # deliver twice
    MISROUTE = "misroute"  # deliver to ``hook``-chosen wrong node


#: Hook signature: called once per message on send; may mutate the
#: message (bit flips) and returns (action, misroute_destination).
FaultHook = Callable[[Message], "tuple[FaultAction, Optional[int]]"]


class Network(ABC):
    """Base class for interconnect models."""

    def __init__(self, name: str, scheduler: Scheduler, stats: StatsRegistry):
        self.name = name
        self.scheduler = scheduler
        self.stats = stats
        self._handlers: Dict[int, Callable[[Message], None]] = {}
        #: In-flight coalesced deliveries, keyed ``cycle << 16 | dst``
        #: (one int hash instead of a tuple allocation per delivery) ->
        #: the message list captured by the already-scheduled callback.
        self._pending_batches: Dict[int, List[Message]] = {}
        self._fault_hook: Optional[FaultHook] = None
        self.messages_sent = 0
        self._h_coalesce = stats.handle(f"net.{name}.coalesced_deliveries")
        # Interned hot-path targets: every message delivery goes through
        # deliver_at, and subclasses charge per-link byte counters per
        # hop via preresolved handles into the flat values list.
        self._post_at = scheduler.post_at
        self._values = stats.values
        #: Flight recorder (:mod:`repro.obs.spans`); ``None`` unless the
        #: machine is built with ``spans=True`` — every record site is
        #: guarded so the disabled path costs one attribute load.
        self.spans = None
        self._span_track = 0

    def attach_spans(self, spans) -> None:
        """Attach the flight recorder; one span track per network."""
        self.spans = spans
        self._span_track = spans.track(f"net.{self.name}")

    def register(self, node: int, handler: Callable[[Message], None]) -> None:
        """Attach the handler receiving messages addressed to ``node``."""
        if node in self._handlers:
            raise ConfigError(f"node {node} already registered on {self.name}")
        self._handlers[node] = handler

    def set_fault_hook(self, hook: Optional[FaultHook]) -> None:
        """Install (or clear) the fault-injection hook."""
        self._fault_hook = hook

    def unlink(self) -> None:
        """Drop every node handler and the fault hook, the network's
        links back into its machine (the System cuts them when it is
        freed)."""
        self._handlers.clear()
        self._fault_hook = None

    @property
    def num_nodes(self) -> int:
        return len(self._handlers)

    def _apply_fault_hook(self, message: Message) -> "list[Message]":
        """Run the hook; return the list of messages to actually route."""
        if self._fault_hook is None:
            return [message]
        action, misroute_to = self._fault_hook(message)
        if action is FaultAction.DROP:
            self.stats.incr(f"net.{self.name}.faults.dropped")
            return []
        if action is FaultAction.DUPLICATE:
            self.stats.incr(f"net.{self.name}.faults.duplicated")
            return [message, message.copy_for_duplicate()]
        if action is FaultAction.MISROUTE:
            self.stats.incr(f"net.{self.name}.faults.misrouted")
            if misroute_to is None:
                raise SimulationError("misroute fault without destination")
            message.dst = misroute_to
            return [message]
        return [message]

    def deliver_at(self, time: int, message: Message) -> None:
        """Schedule delivery at ``time``, coalescing same-cycle arrivals.

        The first message bound for ``(dst, time)`` schedules one
        callback; later messages for the same node and cycle ride that
        callback's list instead of costing an event each.  Within a
        batch, messages keep their scheduling order — the order the old
        one-event-per-message scheme would have delivered them in.
        """
        key = time << 16 | message.dst
        batch = self._pending_batches.get(key)
        if batch is not None:
            batch.append(message)
            self._values[self._h_coalesce] += 1
            return
        self._pending_batches[key] = batch = [message]
        self._post_at(time, self._deliver_batch, (key, batch))

    def _deliver_batch(self, key: int, batch: List[Message]) -> None:
        del self._pending_batches[key]
        node = key & 0xFFFF
        handler = self._handlers.get(node)
        if handler is None:
            raise SimulationError(f"{self.name}: no handler for node {node}")
        for message in batch:
            handler(message)

    @abstractmethod
    def send(self, message: Message) -> None:
        """Route ``message`` to its destination with modelled timing."""

    def total_bytes(self) -> int:
        """Total bytes carried (sum over links)."""
        return self.stats.sum(f"net.{self.name}.link.")

    def max_link_bytes(self) -> int:
        """Bytes carried by the busiest link (paper Figure 7)."""
        return self.stats.max_over(f"net.{self.name}.link.")[1]

    def obs_snapshot(self) -> dict:
        """Observable interface: traffic and delivery-coalescing view.

        Per-link byte counters live in the shared stats registry (they
        are part of the deterministic run output); this view adds the
        derived numbers the dashboards want — total/busiest-link bytes
        and the coalescing ratio of the batched-delivery path.
        """
        link_prefix = f"net.{self.name}.link."
        links = self.stats.counters_with_prefix(link_prefix)
        sent = self.messages_sent
        coalesced = self._values[self._h_coalesce]
        return {
            "messages_sent": sent,
            "deliveries_coalesced": coalesced,
            "coalescing_ratio": coalesced / sent if sent else 0.0,
            "pending_batches": len(self._pending_batches),
            "links": len(links),
            "total_bytes": sum(links.values()),
            "max_link_bytes": max(links.values(), default=0),
        }
