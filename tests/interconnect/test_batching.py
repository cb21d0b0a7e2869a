"""Batched delivery: same-(node, cycle) arrivals coalesce into one event."""

import pytest

from repro.common.errors import SimulationError
from repro.common.events import Scheduler
from repro.common.stats import StatsRegistry
from repro.config import NetworkConfig
from repro.interconnect.base import Network
from repro.interconnect.message import Message
from repro.interconnect.torus import TorusNetwork


class _DirectNet(Network):
    """Minimal concrete Network: send = deliver next cycle."""

    def send(self, message):
        self.deliver_at(self.scheduler.now + 1, message)


def make_net():
    sched = Scheduler()
    stats = StatsRegistry()
    net = _DirectNet("n", sched, stats)
    return sched, stats, net


def msg(dst, addr=0):
    return Message(src=0, dst=dst, kind="x", addr=addr)


class TestDeliverAt:
    def test_same_node_same_cycle_coalesce(self):
        sched, stats, net = make_net()
        got = []
        net.register(1, got.append)
        a, b, c = msg(1, 0x10), msg(1, 0x20), msg(1, 0x30)
        net.deliver_at(5, a)
        net.deliver_at(5, b)
        net.deliver_at(5, c)
        sched.run()
        assert got == [a, b, c]  # arrival order preserved
        assert stats.counter("net.n.coalesced_deliveries") == 2

    def test_different_cycles_do_not_coalesce(self):
        sched, stats, net = make_net()
        seen = []
        net.register(1, lambda m: seen.append(sched.now))
        net.deliver_at(5, msg(1))
        net.deliver_at(6, msg(1))
        sched.run()
        assert seen == [5, 6]
        assert stats.counter("net.n.coalesced_deliveries") == 0

    def test_different_nodes_do_not_coalesce(self):
        sched, stats, net = make_net()
        got = {1: [], 2: []}
        net.register(1, got[1].append)
        net.register(2, got[2].append)
        net.deliver_at(5, msg(1))
        net.deliver_at(5, msg(2))
        sched.run()
        assert len(got[1]) == 1 and len(got[2]) == 1
        assert stats.counter("net.n.coalesced_deliveries") == 0

    def test_key_is_released_after_delivery(self):
        """A later send to the same (node, cycle-number) in a fresh
        cycle must not append to an already-delivered batch."""
        sched, _, net = make_net()
        seen = []
        net.register(1, lambda m: seen.append((sched.now, m.addr)))
        net.deliver_at(3, msg(1, 0xA))
        sched.run()
        net.deliver_at(7, msg(1, 0xB))
        sched.run()
        assert seen == [(3, 0xA), (7, 0xB)]

    def test_same_cycle_send_from_a_handler_starts_a_new_batch(self):
        """A handler sending to its own node for the current cycle must
        not append to the batch being delivered: the message rides a
        fresh batch, delivered after the current one in the same cycle."""
        sched, stats, net = make_net()
        seen = []

        def handler(m):
            seen.append((sched.now, m.addr))
            if m.addr == 0x1:
                net.deliver_at(sched.now, msg(1, 0x3))

        net.register(1, handler)
        net.deliver_at(4, msg(1, 0x1))
        net.deliver_at(4, msg(1, 0x2))
        sched.run()
        assert seen == [(4, 0x1), (4, 0x2), (4, 0x3)]
        assert stats.counter("net.n.coalesced_deliveries") == 1

    def test_snapshot_reads_the_registry_slot(self):
        sched, stats, net = make_net()
        net.register(1, lambda m: None)
        for addr in range(3):
            net.deliver_at(5, msg(1, addr))
        sched.run()
        snap = net.obs_snapshot()
        assert snap["deliveries_coalesced"] == 2
        assert snap["deliveries_coalesced"] == stats.counter(
            "net.n.coalesced_deliveries"
        )

    def test_unregistered_node_raises(self):
        sched, _, net = make_net()
        net.register(1, lambda m: None)
        net.deliver_at(2, msg(9))
        with pytest.raises(SimulationError, match="no handler for node 9"):
            sched.run()


class TestTorusBatching:
    def test_final_hop_coalesces(self):
        sched = Scheduler()
        stats = StatsRegistry()
        net = TorusNetwork("t", sched, stats, 4, NetworkConfig())
        got = []
        net.register(3, got.append)
        # Two messages from different sources landing on node 3; if the
        # torus schedules them onto the same arrival cycle they must
        # still all arrive, in order, regardless of coalescing.
        for src in (0, 1, 2):
            net.send(Message(src=src, dst=3, kind="x", addr=src))
        sched.run()
        assert sorted(m.addr for m in got) == [0, 1, 2]
